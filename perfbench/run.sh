#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the
# repository root with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload dist-p8 --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary live under
# .bench_build/perfbench, so nothing outside the checkout is written.
set -euo pipefail
root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$bench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
