#!/usr/bin/env sh
# Non-test Go lines per internal/* package: every line of every .go file
# that is neither a _test.go file nor under a testdata directory, summed
# over the package's whole subtree (internal/parboil includes its ports).
# ROADMAP.md's "lines go down" criteria are read off this table.
set -eu

cd "$(dirname "$0")/.."
total=0
for dir in internal/*/; do
    n=$(find "$dir" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec cat {} + | wc -l)
    printf '%-22s %6d\n' "${dir%/}" "$n"
    total=$((total + n))
done
printf '%-22s %6d\n' total "$total"
