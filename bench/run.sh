#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the Go toolchain writes (build cache, module cache, the
# binary) goes under .bench_build/ in the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -buildvcs=false -o "$build/muxbench" .)
cd "$root"
exec "$build/muxbench" "$@"
