#!/usr/bin/env bash
# Builds the hdSMT benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash hdsmtbench/run.sh --workload exact-cells --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, span
# files, daemon journals) stays under .bench_build/ in the current
# directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$root/hdsmtbench" && go build -o "$out/hdsmtbench" .) >&2
exec "$out/hdsmtbench" "$@"
