#!/usr/bin/env sh
# Code layout of the benchmark binary against a base commit. Builds bench's
# perfbench from `git archive <ref>` and from the work tree (offline), then
# prints:
#   - how many triolet/internal text symbols exist on one side only, and
#     which (- base, + work tree);
#   - the address deltas of the text symbols both sides share, one row per
#     run of consecutive functions (work-tree address order) that moved by
#     the same amount, with its mod-64 class, its size and its first and
#     last package;
#   - the deltas of the sentinel functions whose speed reads the layout
#     (sgemm.Seq, sgemm.blockMul, main.heatCell, main.lifeCell).
# A change to an early package (transport, mpi, cluster) moves everything
# linked after it; keep that shift a multiple of 64 bytes, or sgemm-wire's
# vs_ref moves with no sgemm code changed. Gates nothing.
#
# usage: layout.sh -base <git-ref>
set -eu

[ "${1:-}" = -base ] || { echo "usage: layout.sh -base <git-ref>" >&2; exit 2; }
base=${2:?layout.sh: -base needs a git ref}

cd "$(dirname "$0")/.."
root=$(pwd)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$base" | tar -x -C "$tmp/base"

export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-modcacherw
(cd "$tmp/base/bench" && go build -o "$tmp/perfbench.base" .)
(cd "$root/bench" && go build -o "$tmp/perfbench.work" .)

# syms <bin>: "address name" per text symbol, in address order (a name may
# hold spaces: type-equality functions of struct types).
syms() {
    go tool nm -n -size "$1" | awk '$3 == "T" || $3 == "t" {
        name = $4
        for (i = 5; i <= NF; i++) name = name " " $i
        print $1, name
    }'
}
syms "$tmp/perfbench.base" >"$tmp/base.syms"
syms "$tmp/perfbench.work" >"$tmp/work.syms"

awk -v sentinels='triolet/internal/parboil/sgemm.Seq triolet/internal/parboil/sgemm.blockMul main.heatCell main.lifeCell' '
function name(line) { return substr(line, index(line, " ") + 1) }
# addr: the hex address that starts a line (no strtonum: mawk has none).
function addr(line,   h, v, i) {
    h = tolower(substr(line, 1, index(line, " ") - 1))
    v = 0
    for (i = 1; i <= length(h); i++) v = v * 16 + index("0123456789abcdef", substr(h, i, 1)) - 1
    return v
}
# pkg: the import path of a symbol, generic arguments aside.
function pkg(s,   p, slash) {
    sub(/\[.*/, "", s)
    slash = match(s, /\/[^\/]*$/) ? RSTART : 0
    p = index(substr(s, slash + 1), ".")
    return p ? substr(s, 1, slash + p - 1) : s
}
function mod64(d) { return ((d % 64) + 64) % 64 }
function flush() {
    if (run > 0)
        printf "%+9d %5d %6d %9d  %s .. %s\n", delta, mod64(delta), run, runbytes, first, last
}
FNR == 1 { side++ }
side == 1 { n = name($0); if (n in old) dup[n] = 1; old[n] = addr($0); next }
{
    n = name($0)
    if (n in seen) dup[n] = 1
    seen[n] = 1
    order[++nw] = n
    at[n] = addr($0)
}
END {
    for (n in old)
        if (!(n in seen) && n ~ /^triolet\/internal/) { baseonly++; only = only "\n  - " n }
    for (i = 1; i <= nw; i++)
        if (!(order[i] in old) && order[i] ~ /^triolet\/internal/) { workonly++; only = only "\n  + " order[i] }
    printf "triolet/internal text symbols on one side only: %d base, %d work tree%s\n\n", baseonly, workonly, only
    print "    delta mod64  funcs     bytes  first .. last package"
    for (i = 1; i <= nw; i++) {
        n = order[i]
        if (!(n in old) || (n in dup)) continue
        d = at[n] - old[n]
        if (run == 0 || d != delta) {
            flush()
            delta = d; run = 0; runbytes = 0; first = pkg(n)
        }
        run++
        if (i < nw) runbytes += at[order[i + 1]] - at[n]
        last = pkg(n)
    }
    flush()
    print ""
    ns = split(sentinels, s, " ")
    for (i = 1; i <= ns; i++) {
        if (!(s[i] in old) || !(s[i] in seen)) { printf "%-40s missing\n", s[i]; continue }
        d = at[s[i]] - old[s[i]]
        printf "%-40s %+7d  mod64 %2d\n", s[i], d, mod64(d)
    }
}' "$tmp/base.syms" "$tmp/work.syms"
