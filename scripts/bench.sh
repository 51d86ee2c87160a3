#!/usr/bin/env bash
# bench.sh — run the F/Q/O/A/W benchmark suites and record the rows as
# BENCH_<date>.json in the repo root, seeding the performance trajectory
# across PRs.
#
# Usage:
#   scripts/bench.sh                     # default: -benchtime=1s -count=1
#   scripts/bench.sh --check BASE.json   # also compare medians against a
#                                        # committed baseline and exit 1 on
#                                        # a >REGRESSION_FACTOR regression
#                                        # in the guard benchmarks
#   BENCHTIME=100ms scripts/bench.sh     # quicker smoke
#   COUNT=5 scripts/bench.sh             # repetitions for the medians
#
# The raw `go test -bench` output is kept next to the JSON. To compare two
# runs, pass the earlier JSON to --check.
set -euo pipefail

cd "$(dirname "$0")/.."

BASELINE=""
if [ "${1:-}" = "--check" ]; then
    BASELINE="${2:?usage: bench.sh --check BASELINE.json}"
    [ -f "$BASELINE" ] || { echo "baseline $BASELINE not found" >&2; exit 2; }
fi

BENCHTIME="${BENCHTIME:-1s}"
COUNT="${COUNT:-1}"
# Guard benchmarks for --check: the paper queries and graph primitives
# whose regressions previous PRs fought hardest for, plus the mixed
# read/write contention suite (W2), the parallel collection scan that
# guards the snapshot-isolated read path, the propagation engine's
# incremental delta path (delta vs control vs recompute), and the query
# planner's semi-join + provenance-index wins.
GUARDS="${GUARDS:-BenchmarkQ1TP53|BenchmarkO3AGraphPrimitives|BenchmarkF1AGraphScenario|BenchmarkW2MixedReadWrite|BenchmarkSearchContentsParallel|BenchmarkPropagation|BenchmarkPlanner}"
REGRESSION_FACTOR="${REGRESSION_FACTOR:-2.0}"
DATE="$(date +%Y-%m-%d)"
TXT="BENCH_${DATE}.txt"
JSON="BENCH_${DATE}.json"
# In check mode the current run must never clobber the baseline it is
# being compared against (same-day runs would otherwise compare the file
# to itself and pass vacuously), so it writes to BENCH_current.*.
if [ -n "$BASELINE" ]; then
    TXT="BENCH_current.txt"
    JSON="BENCH_current.json"
fi

PATTERN='BenchmarkF1AGraphScenario|BenchmarkF2AnnotateWorkflow|BenchmarkF3QueryTab|BenchmarkQ1TP53|BenchmarkQ2Protease|BenchmarkO1SubXOps|BenchmarkO2OntologyOps|BenchmarkO3AGraphPrimitives|BenchmarkA1IndexConsolidation|BenchmarkA2IntervalVsScan|BenchmarkA3RTreeVsScan|BenchmarkA4ConnectStrategies|BenchmarkA5PlannerOrdering|BenchmarkA6ContentIndex|BenchmarkA7BulkLoadVsIncremental|BenchmarkW1DurableCommit|BenchmarkW2MixedReadWrite|BenchmarkSearchContentsParallel|BenchmarkPropagation|BenchmarkPlanner'

# The /metrics readings BenchmarkRecoveryMetrics reports; every one must
# land in the JSON as a metrics:<name> row.
METRICS='graphitti_store_commit_duration_seconds_p50 graphitti_store_commit_duration_seconds_p99 graphitti_durable_commit_wait_seconds_p50 graphitti_durable_commit_wait_seconds_p99 graphitti_wal_flushes_total graphitti_wal_flush_batch_records_count graphitti_wal_flush_batch_records_p50 graphitti_wal_flush_batch_records_p99 graphitti_wal_fsync_duration_seconds_p50 graphitti_wal_fsync_duration_seconds_p99'

ROWS="$(mktemp)"
RUN="$(mktemp)"
trap 'rm -f "$ROWS" "$RUN"' EXIT
: >"$TXT"

# suite PREFIX PATTERN BENCHTIME COUNT runs the benchmarks matching
# PATTERN in their own go test process, appends the output to $TXT, and
# appends one JSON row per result line to $ROWS, its name prefixed by
# PREFIX. The prefix also picks the row shape:
#   ""        {name, iterations, ns_per_op[, bytes_per_op, allocs_per_op]}
#   shards:   {name, iterations, ns_per_op}, plus a derived
#             shards:commits_per_sec:<bench> {name, value} row
#   trace:    {name, iterations, ns_per_op}
#   metrics:  one {name: metrics:<unit>, value} row per b.ReportMetric
#             unit; no ns_per_op key
# Only unprefixed names fall inside the --check guard set below.
suite() {
    local prefix="$1" pattern="$2" benchtime="$3" count="$4"
    echo "running ${prefix:-main} suites (benchtime=${benchtime}, count=${count})…" >&2
    go test -run '^$' -bench "$pattern" -benchmem \
        -benchtime "$benchtime" -count "$count" . | tee "$RUN"
    cat "$RUN" >>"$TXT"
    awk -v date="$DATE" -v prefix="$prefix" '
function row(body) { printf "  {\"date\": \"%s\", %s}\n", date, body }
# BenchmarkName/sub=1-8  123  456 ns/op  789 B/op  12 allocs/op  3.000 unit
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    split("", v)
    for (i = 3; i < NF; i += 2) v[$(i + 1)] = $i
    if (prefix == "metrics:") {
        for (i = 3; i < NF; i += 2) {
            unit = $(i + 1)
            if (unit != "ns/op" && unit != "B/op" && unit != "allocs/op")
                row(sprintf("\"name\": \"metrics:%s\", \"value\": %s", unit, $i))
        }
        next
    }
    if (!("ns/op" in v)) next
    body = sprintf("\"name\": \"%s%s\", \"iterations\": %s, \"ns_per_op\": %s", prefix, name, $2, v["ns/op"])
    if (prefix == "" && ("B/op" in v)) body = body ", \"bytes_per_op\": " v["B/op"]
    if (prefix == "" && ("allocs/op" in v)) body = body ", \"allocs_per_op\": " v["allocs/op"]
    row(body)
    if (prefix == "shards:")
        row(sprintf("\"name\": \"shards:commits_per_sec:%s\", \"value\": %.1f", name, 1e9 / v["ns/op"]))
}
' "$RUN" >>"$ROWS"
}

suite "" "$PATTERN" "$BENCHTIME" "$COUNT"

# Sharded scaling matrix: the W2 write side and durable commits at
# 1/2/4/8 writer pipelines, with a commits/s rate for each point.
suite "shards:" 'BenchmarkW2ShardedCommits|BenchmarkW1ShardedDurableCommit' "$BENCHTIME" "$COUNT"

# Tracing overhead probe: the traced W2 variant (every commit carries a
# span tree into a live ring, every read runs under a traced context)
# against the untraced W2 medians from THIS run — same binary, machine
# and benchtime, so the ratio isolates the tracing cost. The overhead is
# gated here, in-run, at the same REGRESSION_FACTOR.
suite "trace:" 'BenchmarkW2TracedMixedReadWrite' "$BENCHTIME" "$COUNT"

echo "checking traced-vs-untraced W2 overhead (limit ${REGRESSION_FACTOR}x)…" >&2
awk -v factor="$REGRESSION_FACTOR" '
function medianof(arr, n,    i, t, j) {
    for (i = 2; i <= n; i++) {
        t = arr[i]
        for (j = i - 1; j >= 1 && arr[j] > t; j--) arr[j + 1] = arr[j]
        arr[j + 1] = t
    }
    if (n % 2) return arr[(n + 1) / 2]
    return (arr[n / 2] + arr[n / 2 + 1]) / 2
}
/^BenchmarkW2MixedReadWrite\/SearchContents/ {
    for (i = 2; i < NF; i++) if ($(i + 1) == "ns/op") plain[++np] = $i + 0
}
/^BenchmarkW2TracedMixedReadWrite\/SearchContents/ {
    for (i = 2; i < NF; i++) if ($(i + 1) == "ns/op") traced[++nt] = $i + 0
}
END {
    if (np == 0 || nt == 0) {
        print "missing W2 traced/untraced samples to compare" > "/dev/stderr"
        exit 2
    }
    pm = medianof(plain, np); tm = medianof(traced, nt)
    ratio = tm / pm
    printf "W2 SearchContents median: untraced %.0f ns/op, traced %.0f ns/op (%.2fx)\n", pm, tm, ratio
    if (ratio > factor) {
        printf "tracing overhead %.2fx exceeds the %sx gate\n", ratio, factor > "/dev/stderr"
        exit 1
    }
}
' "$TXT"

# /metrics readings from the durable mixed workload (commit latency
# quantiles, WAL flush batching). The metric registry is process-global,
# so the benchmark runs alone, once, in its own process.
suite "metrics:" '^BenchmarkRecoveryMetrics$' 1x 1

{ echo "["; sed '$!s/$/,/' "$ROWS"; echo "]"; } >"$JSON"
echo "wrote $TXT and $JSON" >&2

missing=""
for m in $METRICS; do
    grep -q "\"name\": \"metrics:$m\"" "$JSON" || missing="$missing $m"
done
if [ -n "$missing" ]; then
    echo "missing metrics rows in $JSON:$missing" >&2
    exit 1
fi

[ -z "$BASELINE" ] && exit 0

# --check: compare per-benchmark ns/op medians for the guard suites. The
# JSON rows are the one-object-per-line format this script itself emits,
# so a constrained awk parse is safe.
echo "checking guard benchmarks (${GUARDS}) against ${BASELINE} (limit ${REGRESSION_FACTOR}x)…" >&2
awk -v guards="$GUARDS" -v factor="$REGRESSION_FACTOR" -v base="$BASELINE" -v cur="$JSON" '
function medianof(arr, n,    i, tmp, t, j) {
    # insertion-sort the n values, return the median
    for (i = 2; i <= n; i++) {
        t = arr[i]
        for (j = i - 1; j >= 1 && arr[j] > t; j--) arr[j + 1] = arr[j]
        arr[j + 1] = t
    }
    if (n % 2) return arr[(n + 1) / 2]
    return (arr[n / 2] + arr[n / 2 + 1]) / 2
}
function collect(file, vals, counts,    line, name, ns, m) {
    while ((getline line < file) > 0) {
        if (match(line, /"name": "[^"]+"/)) {
            name = substr(line, RSTART + 9, RLENGTH - 10)
            if (match(line, /"ns_per_op": [0-9.]+/)) {
                ns = substr(line, RSTART + 13, RLENGTH - 13) + 0
                counts[name]++
                vals[name, counts[name]] = ns
            }
        }
    }
    close(file)
}
BEGIN {
    split("", bvals); split("", bcounts)
    split("", cvals); split("", ccounts)
    collect(base, bvals, bcounts)
    collect(cur, cvals, ccounts)
    bad = 0; checked = 0
    for (name in ccounts) {
        root = name; sub(/\/.*/, "", root)
        if (root !~ "^(" guards ")$") continue
        if (!(name in bcounts)) continue  # new sub-benchmark: no baseline
        n = ccounts[name]; for (i = 1; i <= n; i++) a[i] = cvals[name, i]
        curmed = medianof(a, n)
        n = bcounts[name]; for (i = 1; i <= n; i++) a[i] = bvals[name, i]
        basemed = medianof(a, n)
        if (basemed <= 0) continue
        checked++
        ratio = curmed / basemed
        status = "ok"
        if (ratio > factor) { status = "REGRESSION"; bad++ }
        printf "%-70s %12.0f -> %12.0f ns/op  %5.2fx  %s\n", name, basemed, curmed, ratio, status
    }
    if (checked == 0) { print "no guard benchmarks matched between baseline and current run" > "/dev/stderr"; exit 2 }
    if (bad > 0) { printf "%d guard benchmark(s) regressed beyond %sx\n", bad, factor > "/dev/stderr"; exit 1 }
    print "all guard benchmarks within " factor "x of baseline"
}
'
