#!/usr/bin/env sh
# Exported functions and methods of the internal/ packages that no main
# links. Builds every main (cmd/*, examples/* and bench's perfbench) offline
# with inlining off, so a function inlined at every call site still links,
# reads each binary's text symbols with `go tool nm`, and prints each
# exported function or method that `go doc -all` lists for an internal/
# package and that appears in no binary, then their count. A closure, go or
# defer wrapper or method value counts as its enclosing function, every
# generic instantiation as the generic function, and a value method may link
# as T.M or (*T).M. Gates nothing: a listed name may still be what a test,
# the oracle or an ablation calls.
#
# usage: reach.sh
set -eu

cd "$(dirname "$0")/.."
root=$(pwd)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/bin"

export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-modcacherw
go build -gcflags=all=-l -o "$tmp/bin/" ./cmd/... ./examples/...
(cd "$root/bench" && go build -gcflags=all=-l -o "$tmp/bin/perfbench" .)

# Linked names: everything after the symbol type letter (a name may hold
# spaces inside struct shapes), generic brackets (nested) stripped, then the
# closure and wrapper suffixes.
for bin in "$tmp"/bin/*; do
    go tool nm "$bin"
done | awk '$2 == "T" || $2 == "t" {
    s = substr($0, index($0, " " $2 " ") + 3)
    if (s !~ /^triolet\/internal\//) next
    out = ""; depth = 0
    for (i = 1; i <= length(s); i++) {
        c = substr(s, i, 1)
        if (c == "[") depth++
        else if (c == "]") depth--
        else if (depth == 0) out = out c
    }
    do {
        prev = out
        sub(/-fm$/, "", out)
        sub(/\.(func|gowrap|deferwrap)[0-9]+(\.[0-9]+)*$/, "", out)
    } while (out != prev)
    print out
}' | sort -u >"$tmp/linked"

# Exported API: "pkg recv name" per function or method (recv "-" for a
# function; the receiver type without type parameters, "*" marking a
# pointer receiver).
for pkg in $(go list ./internal/...); do
    go doc -all "$pkg" | awk -v pkg="$pkg" '/^func / {
        s = substr($0, 6)
        recv = "-"
        if (substr(s, 1, 1) == "(") {
            recv = substr(s, 2, index(s, ")") - 2)
            sub(/\[.*/, "", recv)
            n = split(recv, w, " ")
            recv = w[n]
            s = substr(s, index(s, ")") + 2)
        }
        match(s, /^[A-Za-z0-9_]+/)
        name = substr(s, 1, RLENGTH)
        if (name ~ /^[A-Z]/) print pkg, recv, name
    }'
done >"$tmp/api"

awk 'NR == FNR { linked[$0] = 1; next }
{
    pkg = $1; recv = $2; name = $3
    if (recv == "-") {
        form = pkg "." name
        if (form in linked) next
    } else {
        t = recv
        sub(/^\*/, "", t)
        value = pkg "." t "." name
        ptr = pkg ".(*" t ")." name
        if ((value in linked) || (ptr in linked)) next
        form = recv ~ /^\*/ ? ptr : value
    }
    sub(/^triolet\//, "", form)
    print form
    n++
}
END { printf "%d exported functions and methods linked by no main\n", n }' "$tmp/linked" "$tmp/api"
