#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the given
# arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload sort-tcp --seed 1 --seconds 50 --trace 0
#
# Everything it writes (build cache, binary, reports, span files) stays in
# .bench_build/ under the current directory.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
