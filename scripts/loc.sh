#!/usr/bin/env sh
# Non-test Go lines per internal/* package: every line of every .go file
# that is neither a _test.go file nor under a testdata directory, summed
# over the package's whole subtree (internal/parboil includes its ports).
# ROADMAP.md's "lines go down" criteria are read off this table. The cmd/*
# commands follow the internal total as rows of their own, outside it.
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
    git archive "$base" internal cmd | tar -x -C "$old"
fi

# row <label> <lines> <lines at base>: one table row, with the delta under
# -base.
row() {
    if [ -n "$old" ]; then
        printf '%-22s %6d %+6d\n' "$1" "$2" $(($2 - $3))
    else
        printf '%-22s %6d\n' "$1" "$2"
    fi
}

# rows <dir>: a row per package under <dir> in either tree, so one the
# change deletes still shows its delta; leaves the sums in sum and sum_old.
rows() {
    sum=0
    sum_old=0
    for d in $( (ls -d "$1"/*/; [ -z "$old" ] || (cd "$old" && ls -d "$1"/*/)) | sort -u); do
        pkg=${d%/}
        n=$(count . "$pkg")
        o=0
        [ -z "$old" ] || o=$(count "$old" "$pkg")
        sum=$((sum + n))
        sum_old=$((sum_old + o))
        row "$pkg" "$n" "$o"
    done
}

rows internal
row total "$sum" "$sum_old"
rows cmd
