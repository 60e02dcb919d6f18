#!/usr/bin/env bash
# Builds the harness from source inside the checkout (binary, Go build
# cache and all under .bench_build/) and runs it with the arguments given.
# It fails where the repository's own go.mod is missing.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
go build -C "$here" -o "$build/bench" .
exec "$build/bench" "$@"
