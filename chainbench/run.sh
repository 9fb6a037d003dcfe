#!/usr/bin/env bash
# Builds the depot-chain benchmark from the checkout it sits in and runs
# it with the given arguments, e.g.
#
#   bash chainbench/run.sh --workload chain-bulk --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes to .bench_build/ at the
# root of the checkout: the binary, the Go build cache, the cache-churn
# disk tier and traced runs' span files.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/chainbench" .)
exec "$out/chainbench" --workdir "$out" "$@"
