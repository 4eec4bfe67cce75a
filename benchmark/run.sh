#!/usr/bin/env bash
# run.sh builds the benchmark from source and runs it, keeping everything
# the build and the run write inside the checkout: the binary and all the
# Go toolchain writes (build cache, temporary files, module cache, its own
# usage counters) go to .bench_build/ at the repository root, traces and
# scratch spools to benchmark/out/. Arguments are passed through to the
# program (see main.go).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/config"

cd "$here"
# The module has no dependency outside this checkout, so the build needs
# no network; GOFLAGS is cleared so a caller's -mod or -tags cannot change
# what is measured.
GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	go build -o "$build/apollo-benchmark" .
exec "$build/apollo-benchmark" "$@"
