#!/usr/bin/env bash
# kill_resume_smoke.sh — end-to-end crash-recovery proof for pivot-exp.
#
# Two sweeps — an experiment sweep (fig5 fig6) and a scenario sweep
# (examples/scenarios/fleet.json) — each run three ways:
#   1. uninterrupted, as the reference;
#   2. with a result cache, SIGKILLed mid-sweep;
#   3. rerun against the result cache of (2).
# The recovered output must be byte-identical to the reference. The result
# cache is the only recovery path: jobs that finished before the kill replay
# from it, and the job in flight at the kill reruns from the start. The kill
# comes after half the reference run's wall time, so it lands mid-sweep on a
# fast host and a slow one alike — during calibration or mid-simulation;
# recovery must produce identical tables wherever it lands, so the check is
# deterministic even though the kill point is not.
set -euo pipefail

cd "$(dirname "$0")/.."

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

go build -o "$work/pivot-exp" ./cmd/pivot-exp

# kill_resume NAME ARGS... runs one sweep the three ways.
kill_resume() {
    local name=$1
    shift
    local dir="$work/$name"
    mkdir -p "$dir"

    echo "== $name: reference (uninterrupted) =="
    local start end
    start=$(date +%s.%N)
    "$work/pivot-exp" "$@" > "$dir/ref.txt"
    end=$(date +%s.%N)
    local delay
    delay=$(awk -v a="$start" -v b="$end" 'BEGIN { printf "%.2f", (b - a) / 2 }')

    echo "== $name: interrupted run (SIGKILL after ${delay}s) =="
    "$work/pivot-exp" -cache-dir "$dir/cache" \
        "$@" > "$dir/killed.txt" 2> "$dir/killed.err" &
    local pid=$!
    sleep "$delay"
    kill -KILL "$pid" 2>/dev/null || echo "(sweep finished before the kill)"
    wait "$pid" 2>/dev/null || true
    echo "   at the kill: $(find "$dir/cache" -name '*.json' 2>/dev/null | wc -l) cached job(s)"

    echo "== $name: resumed run =="
    "$work/pivot-exp" -cache-dir "$dir/cache" \
        "$@" > "$dir/resumed.txt"

    if ! cmp -s "$dir/ref.txt" "$dir/resumed.txt"; then
        echo "FAIL: $name: resumed output differs from the uninterrupted reference" >&2
        diff "$dir/ref.txt" "$dir/resumed.txt" >&2 || true
        exit 1
    fi
    echo "OK: $name: resumed output is byte-identical to the uninterrupted reference"
}

kill_resume experiments -quick -cores 4 -quiet fig5 fig6
kill_resume scenario -quick -quiet -scenario examples/scenarios/fleet.json
