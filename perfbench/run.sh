#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#   bash perfbench/run.sh --workload fig7-sweep --seed 1 --seconds 10 --trace 0
# Build outputs, the Go build cache and any Go state stay under
# .bench_build in the working directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" GOCACHE="$out/gocache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
