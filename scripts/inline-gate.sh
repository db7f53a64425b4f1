#!/usr/bin/env sh
# Inline gate: stencil.Neighborhood.At must stay inlinable. It is one indexed
# load (cost 15 of the compiler's budget of 80); a helpful extra branch pushes
# it past the budget, every neighbourhood read becomes a real call, and the
# sweep runs 3x slower while every other gate stays green. internal/stencil
# instantiates At for the benchmarks' two element shapes, so compiling that
# package alone prints the verdict for both.
set -eu

cd "$(dirname "$0")/.."
out=$(go build -gcflags=-m=2 ./internal/stencil 2>&1)
status=0
for shape in float64 int64; do
    want="can inline Neighborhood[go.shape.$shape].At"
    if ! printf '%s\n' "$out" | grep -qF "$want"; then
        echo "inline-gate: FAIL - compiler output lacks \"$want\":" >&2
        printf '%s\n' "$out" | grep -F "Neighborhood[go.shape.$shape].At" >&2 || true
        status=1
    fi
done
[ "$status" -eq 0 ] && echo "inline-gate: Neighborhood.At inlines for float64 and int64"
exit "$status"
