#!/usr/bin/env bash
# bench.sh — record (or gate on) the simulator's headline perf number.
#
# Runs BenchmarkSimulatorCyclesPerSecond (the Fig-1 default mix: 1 LC Silo +
# 3 BE iBench on the 4-core Kunpeng config, stepped in 10,000-cycle granules,
# so ns_per_cycle = ns/op / 10000) five times and reduces the repeats to
# their median and interquartile range. Default mode appends one
# record to the history array in BENCH_cycles_per_sec.json in the repo root:
#
#   [
#     {"commit": ..., "date": ..., "benchmark": ..., "host_cores": ...,
#      "gomaxprocs": ..., "count": 5, "ns_per_cycle": <median>,
#      "cycles_per_sec": <median>, "cycles_per_sec_iqr": ...},
#     ...
#   ]
#
# One record per commit (re-measuring the same commit replaces its record),
# so the perf trajectory is readable from the working tree alone. Records of
# other benchmarks already in the file are kept as they are.
#
#   scripts/bench.sh              # measure and append to the history
#   scripts/bench.sh -check       # measure and FAIL if the median cycles/sec
#                                 # regressed >20% vs the latest committed
#                                 # record (no committed record passes)
#
# A pre-history file holding a single bare JSON object is migrated to the
# array form on the next write.
set -euo pipefail

cd "$(dirname "$0")/.."

out=BENCH_cycles_per_sec.json
bench=BenchmarkSimulatorCyclesPerSecond
benchtime=${BENCHTIME:-2s}
mode=${1:-write}

bench_out=$(go test -bench "^${bench}\$" -benchtime "$benchtime" -count 5 -run '^$' . | tee /dev/stderr)

# One ns/op value per repeat, sorted ascending.
ns_values=$(echo "$bench_out" | grep -E "^${bench}(-[0-9]+)?[[:space:]]" |
    awk '{for (i=1;i<=NF;i++) if ($(i)=="ns/op") print $(i-1)}' | sort -g)
n=$(printf '%s\n' "$ns_values" | sed '/^$/d' | wc -l | tr -d ' ')
if [ "$n" -eq 0 ]; then
    echo "bench.sh: could not parse ns/op from the benchmark output" >&2
    exit 1
fi

# quantile Q -> linearly interpolated Q-quantile of the sorted values on
# stdin.
quantile() {
    awk -v q="$1" '{v[NR]=$1} END{p=(NR-1)*q; i=int(p); f=p-i; printf "%.4f", v[i+1]+(v[i+2]-v[i+1])*f}'
}
to_cps() { awk -v n="$1" 'BEGIN{printf "%.0f", 1e9/(n/10000)}'; }
to_npc() { awk -v n="$1" 'BEGIN{printf "%.4f", n/10000}'; }

median_ns=$(printf '%s\n' "$ns_values" | quantile 0.5)
q1_ns=$(printf '%s\n' "$ns_values" | quantile 0.25)
q3_ns=$(printf '%s\n' "$ns_values" | quantile 0.75)
median_cps=$(to_cps "$median_ns")
# Cycles/sec falls as ns/op rises, so the ns quartiles swap ends.
iqr_cps=$(awk -v lo="$(to_cps "$q3_ns")" -v hi="$(to_cps "$q1_ns")" 'BEGIN{printf "%.0f", hi-lo}')

if [ "$mode" = "-check" ]; then
    if [ ! -f "$out" ]; then
        echo "bench.sh: no committed $out baseline to check against" >&2
        exit 1
    fi
    # Latest record for this benchmark = last matching line (records are
    # appended in measurement order).
    base=$(grep -o '{[^}]*}' "$out" | grep "\"benchmark\": \"${bench}\"" |
        tail -n 1 | grep -o '"cycles_per_sec"[^,}]*' | grep -o '[0-9.]*$' || true)
    if [ -z "$base" ]; then
        echo "bench.sh: ${bench}: no committed record yet (median ${median_cps} cycles/s) — skipping gate"
        exit 0
    fi
    floor=$(awk -v b="$base" 'BEGIN{printf "%.0f", b*0.8}')
    echo "bench.sh: ${bench}: median ${median_cps} cycles/s (IQR ${iqr_cps}, n=${n}), latest baseline ${base}, floor ${floor}"
    if awk -v c="$median_cps" -v f="$floor" 'BEGIN{exit !(c < f)}'; then
        echo "bench.sh: FAIL — ${bench} median regressed >20% vs committed baseline" >&2
        exit 1
    fi
    echo "bench.sh: OK"
    exit 0
fi

commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
date=$(date -u +%Y-%m-%dT%H:%M:%SZ)
# Host parallelism context: without it a history mixing an 8-core laptop and
# a 96-core CI runner reads as a perf cliff. GOMAXPROCS is what the Go
# runtime actually used (it may be capped below the core count by the
# environment); host_cores is the hardware ceiling.
host_cores=$( (nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0) | head -n 1)
gomaxprocs=$(go env GOMAXPROCS 2>/dev/null)
if [ -z "$gomaxprocs" ] || [ "$gomaxprocs" = "0" ]; then
    gomaxprocs=${GOMAXPROCS:-$host_cores}
fi
rec="{\"commit\": \"${commit}\", \"date\": \"${date}\", \"benchmark\": \"${bench}\", \"host_cores\": ${host_cores}, \"gomaxprocs\": ${gomaxprocs}, \"count\": ${n}, \"ns_per_cycle\": $(to_npc "$median_ns"), \"cycles_per_sec\": ${median_cps}, \"cycles_per_sec_iqr\": ${iqr_cps}}"

# Existing records, one per line (records are flat objects, so this parses
# both the array form and the pre-history single object), minus any previous
# measurement of this benchmark at this same commit.
records=""
if [ -f "$out" ]; then
    records=$(grep -o '{[^}]*}' "$out" | grep -v "\"commit\": \"${commit}\", \"date\": \"[^\"]*\", \"benchmark\": \"${bench}\"" || true)
fi
records=$(printf '%s\n%s\n' "$records" "$rec" | sed '/^[[:space:]]*$/d')

{
    echo '['
    printf '%s\n' "$records" | sed '$!s/$/,/' | sed 's/^/  /'
    echo ']'
} >"$out"
total=$(printf '%s\n' "$records" | wc -l | tr -d ' ')
echo "bench.sh: appended to $out (median ${median_cps} sim-cycles/s, IQR ${iqr_cps}, n=${n}; ${total} record(s))"
