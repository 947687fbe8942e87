#!/usr/bin/env bash
# Builds the benchmark from the source of the checkout it is run in and
# runs one workload. Run it from the root of the checkout:
#
#   bash _bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -C "$root/_bench" -o "$out/gsbench" .
exec "$out/gsbench" "$@"
