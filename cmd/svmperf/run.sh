#!/usr/bin/env bash
# Builds svmperf from source and runs it with the given arguments:
#
#   bash cmd/svmperf/run.sh --workload paper-codrna --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and every
# scratch file the benchmark writes live under .bench_build/ there, and the
# toolchain is pinned to the local one with the module proxy off, so a run
# neither fetches anything nor writes outside the checkout.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath \
	XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off
go -C "$root/cmd/svmperf" build -o "$out/svmperf" .
exec "$out/svmperf" -tmp "$out/tmp" "$@"
