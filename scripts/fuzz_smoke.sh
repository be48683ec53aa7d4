#!/usr/bin/env bash
# fuzz_smoke.sh — CI-sized scenario-fuzzing pass.
#
# Three stages, all bounded:
#   1. replay the checked-in seed corpus (internal/scenfuzz/testdata/corpus)
#      — recorded findings must stay green on the current tree, and the
#      defect-walkthrough entry must still reproduce when its defect is
#      re-armed;
#   2. a fresh bounded campaign (-duration caps wall clock) whose corpus
#      directory must come back empty;
#   3. a sanity check that the seeded skip-ahead defect is still *caught* —
#      a fuzzer that can no longer find a planted bug is broken, not clean.
#
#   scripts/fuzz_smoke.sh                 # default 60s campaign budget
#   scripts/fuzz_smoke.sh -duration 10s   # extra args forwarded to stage 2
set -euo pipefail

cd "$(dirname "$0")/.."

# FUZZ_WORK pins the scratch dir (CI uses this to upload findings from a
# failed run as artifacts); by default it is ephemeral.
if [ -n "${FUZZ_WORK:-}" ]; then
  work=$FUZZ_WORK
  mkdir -p "$work"
else
  work=$(mktemp -d)
  trap 'rm -rf "$work"' EXIT
fi

go build -o "$work/pivot-fuzz" ./cmd/pivot-fuzz

echo "== seed corpus replays clean =="
"$work/pivot-fuzz" -replay internal/scenfuzz/testdata/corpus

echo "== defect entry still reproduces when re-armed =="
if "$work/pivot-fuzz" -replay internal/scenfuzz/testdata/corpus \
    -defect skip-extra-cycle > "$work/replay-defect.txt" 2>&1; then
  echo "defect-armed replay passed; the walkthrough entry no longer reproduces" >&2
  cat "$work/replay-defect.txt" >&2
  exit 1
fi

echo "== bounded fresh campaign =="
"$work/pivot-fuzz" -seed "${FUZZ_SEED:-1}" -n 1000 -duration 60s \
    -corpus "$work/corpus" "$@"

echo "== planted defect is still caught =="
if "$work/pivot-fuzz" -seed 1 -n 1 -oracles equiv -defect skip-extra-cycle \
    -corpus "$work/defect-corpus" > "$work/defect.txt" 2>&1; then
  echo "defect campaign found nothing; the oracle bank lost its teeth" >&2
  cat "$work/defect.txt" >&2
  exit 1
fi
ls "$work/defect-corpus"/equiv-* > /dev/null

echo "fuzz smoke OK"
