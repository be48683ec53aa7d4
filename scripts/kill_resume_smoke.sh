#!/usr/bin/env bash
# kill_resume_smoke.sh — end-to-end crash-recovery proof for pivot-exp.
#
# Runs an experiment sweep three ways:
#   1. uninterrupted, as the reference;
#   2. with journal + checkpoints, SIGKILLed mid-sweep;
#   3. resumed from the journal and checkpoints of (2).
# The recovered output must be byte-identical to the reference. The kill lands wherever it lands — during calibration,
# mid-simulation, or (on a very fast host) after completion; recovery must
# produce identical tables in every case, so the check is deterministic even
# though the kill point is not.
set -euo pipefail

cd "$(dirname "$0")/.."

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

go build -o "$work/pivot-exp" ./cmd/pivot-exp
args=(-quick -cores 4 -quiet fig5 fig6)

echo "== reference (uninterrupted) =="
"$work/pivot-exp" "${args[@]}" > "$work/ref.txt"

echo "== interrupted run (SIGKILL mid-sweep) =="
"$work/pivot-exp" -journal "$work/journal.jsonl" -checkpoint-dir "$work/ckpt" \
    "${args[@]}" > "$work/killed.txt" 2> "$work/killed.err" &
pid=$!
sleep 3
kill -KILL "$pid" 2>/dev/null || echo "(sweep finished before the kill)"
wait "$pid" 2>/dev/null || true

echo "== resumed run =="
"$work/pivot-exp" -journal "$work/journal.jsonl" -resume -checkpoint-dir "$work/ckpt" \
    "${args[@]}" > "$work/resumed.txt"

if ! cmp -s "$work/ref.txt" "$work/resumed.txt"; then
    echo "FAIL: resumed output differs from the uninterrupted reference" >&2
    diff "$work/ref.txt" "$work/resumed.txt" >&2 || true
    exit 1
fi
echo "OK: resumed output is byte-identical to the uninterrupted reference"
