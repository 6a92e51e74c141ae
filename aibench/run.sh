#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (build cache included,
# so nothing is written outside the checkout) and runs it with the given
# arguments. Run from the repository root:
#   bash aibench/run.sh --workload oltp --seed 1 --seconds 20 --trace 0
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOENV=off
export GOPATH="$out/gopath"
(cd "$root/aibench" && go build -o "$out/bin/aibench" .)
exec "$out/bin/aibench" "$@"
