#!/usr/bin/env bash
# Builds the locbench benchmark from this checkout's sources and runs it with
# the given arguments, from the repository root:
#
#   bash bench/run.sh --workload lss-cold --seed 1 --seconds 16 --trace 0
#   bash bench/run.sh -seed 1            # every workload, text lines
#
# The go build cache, temporary files, the binary and every cache directory
# the runs use live under .bench_build/ at the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off GOFLAGS=
(cd bench && go build -o "$out/locbench" ./locbench)
exec "$out/locbench" "$@"
