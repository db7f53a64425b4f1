#!/usr/bin/env sh
# Non-test Go lines per internal/* package: every line of every .go file
# that is neither a _test.go file nor under a testdata directory, summed
# over the package's whole subtree (internal/parboil includes its ports).
# ROADMAP.md's "lines go down" criteria are read off this table.
#
# usage: loc.sh [-base <git-ref>]
# With -base, a third column gives each package's delta against that ref
# (read from the local object store with git archive; no network).
set -eu

base=
if [ "${1:-}" = -base ]; then
    base=${2:?loc.sh: -base needs a git ref}
fi

cd "$(dirname "$0")/.."

# count <tree> <package>: the package's non-test lines under <tree>, 0 when
# the package does not exist there.
count() {
    [ -d "$1/$2" ] || { echo 0; return; }
    find "$1/$2" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec cat {} + | wc -l
}

old=
if [ -n "$base" ]; then
    old=$(mktemp -d)
    trap 'rm -rf "$old"' EXIT
    git archive "$base" internal | tar -x -C "$old"
fi

# Packages of either tree, so one the change deletes still shows its delta.
pkgs=$( (ls -d internal/*/; [ -z "$old" ] || (cd "$old" && ls -d internal/*/)) | sort -u)
total=0
total_old=0
for dir in $pkgs; do
    pkg=${dir%/}
    n=$(count . "$pkg")
    total=$((total + n))
    if [ -n "$old" ]; then
        o=$(count "$old" "$pkg")
        total_old=$((total_old + o))
        printf '%-22s %6d %+6d\n' "$pkg" "$n" $((n - o))
    else
        printf '%-22s %6d\n' "$pkg" "$n"
    fi
done
if [ -n "$old" ]; then
    printf '%-22s %6d %+6d\n' total "$total" $((total - total_old))
else
    printf '%-22s %6d\n' total "$total"
fi
