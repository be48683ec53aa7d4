#!/usr/bin/env bash
# kill_resume_smoke.sh — end-to-end crash-recovery proof for pivot-exp.
#
# Two sweeps — an experiment sweep (fig5 fig6) and a scenario sweep
# (examples/scenarios/fleet.json) — each run three ways:
#   1. uninterrupted, as the reference;
#   2. with a result cache + checkpoints, SIGKILLed mid-sweep;
#   3. rerun against the result cache and checkpoints of (2).
# The recovered output must be byte-identical to the reference. The kill
# lands wherever it lands — during calibration, mid-simulation, or (on a very
# fast host) after completion; recovery must produce identical tables in
# every case, so the check is deterministic even though the kill point is
# not.
set -euo pipefail

cd "$(dirname "$0")/.."

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

go build -o "$work/pivot-exp" ./cmd/pivot-exp

# kill_resume NAME KILL_AFTER_SECONDS ARGS... runs one sweep the three ways.
kill_resume() {
    local name=$1 delay=$2
    shift 2
    local dir="$work/$name"
    mkdir -p "$dir"

    echo "== $name: reference (uninterrupted) =="
    "$work/pivot-exp" "$@" > "$dir/ref.txt"

    echo "== $name: interrupted run (SIGKILL after ${delay}s) =="
    "$work/pivot-exp" -cache-dir "$dir/cache" -checkpoint-dir "$dir/ckpt" \
        "$@" > "$dir/killed.txt" 2> "$dir/killed.err" &
    local pid=$!
    sleep "$delay"
    kill -KILL "$pid" 2>/dev/null || echo "(sweep finished before the kill)"
    wait "$pid" 2>/dev/null || true
    echo "   at the kill: $(find "$dir/cache" -name '*.json' 2>/dev/null | wc -l) cached job(s)," \
        "$(find "$dir/ckpt" -type f 2>/dev/null | wc -l) checkpoint file(s)"

    echo "== $name: resumed run =="
    "$work/pivot-exp" -cache-dir "$dir/cache" -checkpoint-dir "$dir/ckpt" \
        "$@" > "$dir/resumed.txt"

    if ! cmp -s "$dir/ref.txt" "$dir/resumed.txt"; then
        echo "FAIL: $name: resumed output differs from the uninterrupted reference" >&2
        diff "$dir/ref.txt" "$dir/resumed.txt" >&2 || true
        exit 1
    fi
    echo "OK: $name: resumed output is byte-identical to the uninterrupted reference"
}

kill_resume experiments 3 -quick -cores 4 -quiet fig5 fig6
# Frequent checkpoints so the unit in flight at the kill resumes mid-run.
kill_resume scenario 1.5 -quick -quiet -checkpoint-interval 25000 \
    -scenario examples/scenarios/fleet.json
