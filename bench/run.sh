#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the build and the run write goes under
# .bench_build at the root of the checkout, the Go build cache included.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-modcacherw
export GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
