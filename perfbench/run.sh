#!/usr/bin/env bash
# Builds the benchmark into .bench_build and runs it with the given
# arguments. Run it from the repository root:
#   bash perfbench/run.sh --workload serve-sign --seed 1 --seconds 20 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# Keep every build artifact and temporary file inside the checkout, and
# never fetch a toolchain or module.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOENV=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
