#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.  Run from
# the repository root:
#
#   bash perfbench/run.sh --workload serve_mixed --seed 1 --seconds 30 --trace 0
#
# Every build artefact (binary, Go build cache) stays under .bench_build in
# the current directory.  Outside a full checkout the build fails (the
# module replaces fekf with the parent directory), so the script exits
# non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
