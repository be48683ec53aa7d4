#!/usr/bin/env bash
# run.sh — build the benchmark from source and run one workload.
#
#   bash perfbench/run.sh --workload colo-copy --seed 1 --seconds 30 --trace 0
#
# Arguments pass through to the perfbench binary. The build cache, temporary
# files, binary and traced-run records all live under .bench_build/ in the
# repository root, which is also the working directory of the run.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2

cd "$root"
exec "$out/perfbench" -trace-dir "$out/traces" "$@"
