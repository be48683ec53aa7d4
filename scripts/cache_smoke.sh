#!/usr/bin/env bash
# cache_smoke.sh — end-to-end proof for pivot-exp's -cache-dir result cache.
#
# Runs examples/scenarios/fleet.json four ways:
#   1. uncached, as the reference;
#   2. into an empty cache: byte-identical to (1), every unit a miss;
#   3. again from the same cache: byte-identical to (1), every unit a hit;
#   4. from a build with one model parameter edited (ROB size 192 -> 48),
#      same cache: every unit must miss, because the cache keys on the
#      executable's digest and never serves results of other code.
set -euo pipefail

cd "$(dirname "$0")/.."

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

# summary ERRFILE prints the "H M" hit and miss counts of a cached run.
summary() {
    sed -n 's/.*result cache: \([0-9]*\) hit(s), \([0-9]*\) miss(es).*/\1 \2/p' "$1" | tail -1
}

go build -o "$work/pivot-exp" ./cmd/pivot-exp
args=(-quick -quiet -scenario examples/scenarios/fleet.json)

echo "== reference (uncached) =="
"$work/pivot-exp" "${args[@]}" > "$work/ref.txt"

echo "== cold cache =="
"$work/pivot-exp" "${args[@]}" -cache-dir "$work/cache" > "$work/cold.txt" 2> "$work/cold.err"
read -r hits units < <(summary "$work/cold.err") || true
[ "${hits:-}" = 0 ] && [ "${units:-0}" -gt 0 ] || fail "cold run reported '$hits hit(s), $units miss(es)'"
cmp -s "$work/ref.txt" "$work/cold.txt" || fail "cold cached table differs from the uncached one"
echo "   0 hit(s), $units miss(es); table byte-identical"

echo "== warm cache =="
"$work/pivot-exp" "${args[@]}" -cache-dir "$work/cache" > "$work/warm.txt" 2> "$work/warm.err"
[ "$(summary "$work/warm.err")" = "$units 0" ] ||
    fail "warm run reported '$(summary "$work/warm.err")' (hits misses), want '$units 0'"
cmp -s "$work/ref.txt" "$work/warm.txt" || fail "warm cached table differs from the uncached one"
echo "   $units hit(s), 0 miss(es); table byte-identical"

echo "== edited build, same cache =="
cfg=internal/machine/config.go
sed 's/ROBSize: 192/ROBSize: 48/' "$cfg" > "$work/config.go"
cmp -s "$cfg" "$work/config.go" && fail "edit target 'ROBSize: 192' not found in $cfg"
printf '{"Replace":{"%s":"%s"}}\n' "$PWD/$cfg" "$work/config.go" > "$work/overlay.json"
go build -overlay "$work/overlay.json" -o "$work/pivot-exp-edited" ./cmd/pivot-exp
"$work/pivot-exp-edited" "${args[@]}" -cache-dir "$work/cache" > "$work/edited.txt" 2> "$work/edited.err"
[ "$(summary "$work/edited.err")" = "0 $units" ] ||
    fail "edited build reported '$(summary "$work/edited.err")' (hits misses), want '0 $units'"
cmp -s "$work/ref.txt" "$work/edited.txt" && fail "the edit did not change the table; the check proves nothing"
echo "   0 hit(s), $units miss(es); table differs from the pre-edit one"

echo "OK: result cache"
