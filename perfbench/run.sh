#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it.
#
# Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload hot_read --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh steady --runs 5 --seed 1
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the toolchain's temporary files and
# config, the binary, and the engines' data directories.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/xdg"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export XDG_CONFIG_HOME="$out/xdg"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=-mod=mod

(cd "$src" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -datadir "$out/data" "$@"
