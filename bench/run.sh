#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs one workload.
# Run from the root of a checkout:
#
#   bash bench/run.sh --workload cohort_warm --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, store
# directories) stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/e2e" ./e2e)
exec "$build/e2e" -workdir "$build/work" "$@"
