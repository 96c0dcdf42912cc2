#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it, passing
# every argument through (see perfbench/main.go). Run it from the repository
# root:
#
#   bash perfbench/run.sh -workload scan-x10 -seed 1 -seconds 15 -trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, temporary files and spans.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -dir "$out/run" "$@"
