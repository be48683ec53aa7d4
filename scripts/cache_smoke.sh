#!/usr/bin/env bash
# cache_smoke.sh — end-to-end proof for pivot-exp's -cache-dir result cache.
#
# Scenario leg: runs examples/scenarios/fleet.json four ways:
#   1. uncached, as the reference;
#   2. into an empty cache: byte-identical to (1), every unit a miss;
#   3. again from the same cache: byte-identical to (1), every unit a hit;
#   4. from a build with one model parameter edited (ROB size 192 -> 48),
#      same cache: every unit must miss, because the cache keys on the
#      executable's digest and never serves results of other code.
# Experiment leg: the same for table2, whose cached value is its tables, so
# one entry written by a text run serves a -csv run byte-identically, and
# the edited build prints its own ROB size instead of a stale one.
# Artifact leg: -flight-out on a fully cached sweep fails, naming the cache.
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

echo "== experiment table2: cold, warm, -csv from a text entry =="
targs=(-quick -quiet)
"$work/pivot-exp" "${targs[@]}" table2 > "$work/t2-ref.txt"
"$work/pivot-exp" "${targs[@]}" -csv table2 > "$work/t2-ref.csv"
"$work/pivot-exp" "${targs[@]}" -cache-dir "$work/tcache" table2 > "$work/t2-cold.txt" 2> "$work/t2-cold.err"
[ "$(summary "$work/t2-cold.err")" = "0 1" ] ||
    fail "table2 cold run reported '$(summary "$work/t2-cold.err")' (hits misses), want '0 1'"
"$work/pivot-exp" "${targs[@]}" -cache-dir "$work/tcache" table2 > "$work/t2-warm.txt" 2> "$work/t2-warm.err"
[ "$(summary "$work/t2-warm.err")" = "1 0" ] ||
    fail "table2 warm run reported '$(summary "$work/t2-warm.err")' (hits misses), want '1 0'"
cmp -s "$work/t2-ref.txt" "$work/t2-cold.txt" || fail "table2 cold cached text differs from the uncached one"
cmp -s "$work/t2-ref.txt" "$work/t2-warm.txt" || fail "table2 warm cached text differs from the uncached one"
"$work/pivot-exp" "${targs[@]}" -csv -cache-dir "$work/tcache" table2 > "$work/t2-warm.csv" 2> "$work/t2-warm-csv.err"
[ "$(summary "$work/t2-warm-csv.err")" = "1 0" ] ||
    fail "table2 warm -csv run reported '$(summary "$work/t2-warm-csv.err")' (hits misses), want '1 0'"
cmp -s "$work/t2-ref.csv" "$work/t2-warm.csv" || fail "table2 -csv served from a text run's entry differs from uncached -csv"
echo "   cold 0/1, warm 1/0; text and -csv byte-identical to uncached"

echo "== experiment table2: edited build, same cache =="
"$work/pivot-exp-edited" "${targs[@]}" -cache-dir "$work/tcache" table2 > "$work/t2-edited.txt" 2> "$work/t2-edited.err"
[ "$(summary "$work/t2-edited.err")" = "0 1" ] ||
    fail "table2 edited build reported '$(summary "$work/t2-edited.err")' (hits misses), want '0 1'"
grep -Eq '^ROB +48 ' "$work/t2-edited.txt" || fail "edited build did not print ROB 48 (stale table replayed?)"
echo "   0 hit(s), 1 miss(es); prints ROB 48"

echo "== fully cached sweep with -flight-out =="
sargs=(-quick -quiet -scenario examples/scenarios/smoke.json -cache-dir "$work/fcache")
"$work/pivot-exp" "${sargs[@]}" -flight-out "$work/f1.json" > /dev/null 2> "$work/f1.err" ||
    fail "cold -flight-out run failed: $(cat "$work/f1.err")"
if "$work/pivot-exp" "${sargs[@]}" -flight-out "$work/f2.json" > /dev/null 2> "$work/f2.err"; then
    fail "fully cached -flight-out run exited 0 with nothing to write"
fi
grep -q 'every job was a result-cache hit.*rerun without -cache-dir' "$work/f2.err" ||
    fail "fully cached -flight-out run did not name the cache: $(cat "$work/f2.err")"
echo "   exits 1: $(grep 'result-cache hit' "$work/f2.err")"

echo "OK: result cache"
