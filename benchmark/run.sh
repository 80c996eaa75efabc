#!/usr/bin/env bash
# Builds the benchmark harness and simd from this checkout's sources,
# then runs the harness with the given arguments. Run it from the
# repository root:
#
#   bash benchmark/run.sh --workload paper --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory (Go build cache included).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off

cd "$root/benchmark"
go build -o "$out/bin/bench" . >&2
go build -o "$out/bin/simd" repro/cmd/simd >&2
cd "$root"

exec "$out/bin/bench" --simd "$out/bin/simd" --work "$out/work" --testdata benchmark/testdata "$@"
