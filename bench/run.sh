#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build at the root of the
# checkout and runs it with the arguments given. Everything the build and the
# run write (compiler cache, binary, scratch stores, span dumps) stays under
# that directory. In a git checkout the Go build stamps the commit, which the
# output records.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off TMPDIR="$build/tmp"
go build -C "$root/bench" -o "$build/bench" . >&2
exec "$build/bench" "$@"
