#!/usr/bin/env bash
# bench.sh — run the runtime hot-path benchmarks and emit BENCH_runtime.json,
# the perf trajectory record for the engine's inner loop: sustained records/s
# and p99 latency of the saturating steady-state ablation, plus allocs/op of
# the route->exchange->apply micro-benchmarks, the tracker apply path, and
# the cross-process transport.
#
# The benchmark set is DISCOVERED with `go test -list`: every benchmark in
# the runtime packages (internal/core, internal/dataflow, internal/progress,
# internal/transport) is run and recorded automatically, so new ones cannot
# silently fall out of BENCH_runtime.json or scripts/bench_compare.sh's
# regression guard. The root package is the one exception — its figure
# benchmarks are multi-minute paper reproductions, so only the steady-state
# ablation is pinned by name there, and any other root benchmark is LISTED
# LOUDLY at the end as not covered by the perf record.
#
# One non-`go test` entry rides along: BenchmarkClusterThroughput3Proc, a real
# 3-process loopback keycount cluster driven past saturation, whose sustained
# records/s (best of 3 runs) is parsed from the harness's `# throughput` line
# and written into the same JSON — so cross-process wire regressions are
# caught by the same bench_compare.sh guard as the in-process paths. Set
# BENCH_SKIP_CLUSTER=1 to skip it (e.g. on machines without spare ports).
#
# Usage: scripts/bench.sh [output.json]
set -euo pipefail
cd "$(dirname "$0")/.."
OUT=${1:-BENCH_runtime.json}
TMP=$(mktemp)
CLUSTER_PIDS=()
cleanup() {
    [ ${#CLUSTER_PIDS[@]} -gt 0 ] && kill "${CLUSTER_PIDS[@]}" 2>/dev/null
    rm -rf "$TMP" "$CLUSTER_TMP"
}
CLUSTER_TMP=$(mktemp -d)
trap cleanup EXIT

# run_pkg PKG BENCHTIME COUNT [FILTER] — list the package's benchmarks
# matching FILTER (default: all) and run exactly that set COUNT times.
run_pkg() {
    local pkg=$1 benchtime=$2 count=$3 filter=${4:-'^Benchmark'}
    local list pat
    list=$(go test -run xxx -list "$filter" "$pkg" | grep '^Benchmark' || true)
    if [ -z "$list" ]; then
        echo "bench.sh: no benchmarks matching $filter in $pkg" >&2
        return 1
    fi
    pat=$(printf '%s\n' "$list" | paste -sd'|' -)
    echo "running $pkg ($(printf '%s\n' "$list" | wc -l) benchmarks: $(echo $list))..." >&2
    go test -run xxx -bench "^($pat)\$" -benchtime "$benchtime" -count "$count" -benchmem "$pkg" | tee -a "$TMP" >&2
}

# The saturating ablation is heavy (several seconds per sub-benchmark) and a
# single open-loop iteration is noisy (cold caches and machine drift read
# 15-25% slow, which would trip the regression guard spuriously), so it runs
# three times and the JSON keeps each benchmark's best run. Everything else
# in the runtime packages runs once at a fixed benchtime, which already
# averages over many iterations.
run_pkg . 1x 3 '^BenchmarkAblationBinsSteadyState$'
run_pkg ./internal/core/ 1s 1
run_pkg ./internal/dataflow/ 1s 1
run_pkg ./internal/progress/ 1s 1
run_pkg ./internal/transport/ 1s 1

# Cluster-mode throughput: a 3-process keycount on loopback, driven at a
# rate well past single-machine capacity so records/elapsed measures the
# sustained cross-process throughput (coalesced frames, one connection per
# peer, progress exchange — the whole wire path), not the offered load. Best of
# three runs, like the ablation: cold runs on a shared machine read slow.
# The result is appended to $TMP as a synthetic benchmark line in `go test`
# format so the awk stage below records and guards it like any other.
if [ "${BENCH_SKIP_CLUSTER:-0}" != 1 ]; then
    CPROCS=3
    echo "running cluster throughput ($CPROCS-process keycount, best of 3)..." >&2
    go build -o "$CLUSTER_TMP/keycount" ./cmd/keycount
    best=0
    for attempt in 1 2 3; do
        HOSTS=$(go run ./scripts/freeports.go "$CPROCS")
        CLUSTER_PIDS=()
        for ((p = 1; p < CPROCS; p++)); do
            "$CLUSTER_TMP/keycount" -hosts "$HOSTS" -process "$p" -workers 1 \
                -rate 6000000 -duration 2s -migrate-at 0 \
                >"$CLUSTER_TMP/proc$p.out" 2>&1 &
            CLUSTER_PIDS+=($!)
        done
        if ! "$CLUSTER_TMP/keycount" -hosts "$HOSTS" -process 0 -workers 1 \
            -rate 6000000 -duration 2s -migrate-at 0 \
            >"$CLUSTER_TMP/proc0.out" 2>&1; then
            echo "bench.sh: cluster attempt $attempt failed:" >&2
            tail -5 "$CLUSTER_TMP"/proc*.out >&2
            kill "${CLUSTER_PIDS[@]}" 2>/dev/null || true
            wait "${CLUSTER_PIDS[@]}" 2>/dev/null || true
            CLUSTER_PIDS=()
            continue
        fi
        wait "${CLUSTER_PIDS[@]}"
        CLUSTER_PIDS=()
        rps=$(awk '/^# throughput /{for(i=1;i<=NF;i++) if ($i ~ /^records_s=/) {sub(/^records_s=/,"",$i); print $i}}' "$CLUSTER_TMP/proc0.out")
        if [ -z "$rps" ]; then
            echo "bench.sh: cluster attempt $attempt printed no throughput line" >&2
            continue
        fi
        echo "  attempt $attempt: $rps records/s" >&2
        best=$(awk -v a="$best" -v b="$rps" 'BEGIN{print (b > a ? b : a)}')
    done
    if [ "$best" = 0 ]; then
        echo "bench.sh: all cluster throughput attempts failed" >&2
        exit 1
    fi
    # go-test-format line: iterations, ns per record, sustained records/s.
    awk -v r="$best" 'BEGIN{printf "BenchmarkClusterThroughput3Proc 1 %.1f ns/op %d records_s\n", 1e9 / r, r}' >> "$TMP"
fi

# Announce root-package benchmarks the perf record does not cover, so adding
# one is a visible decision rather than a silent gap.
uncovered=$(go test -run xxx -list '^Benchmark' . | grep '^Benchmark' | grep -v '^BenchmarkAblationBinsSteadyState$' || true)
if [ -n "$uncovered" ]; then
    echo "note: root-package benchmarks NOT in the runtime perf record (paper figures; see EXPERIMENTS.md):" >&2
    printf '    %s\n' $uncovered >&2
fi

# Emit JSON, keeping the best run per benchmark: highest records_s when the
# benchmark reports throughput, lowest ns/op otherwise.
awk '
/^Benchmark/ {
    name = $1
    fields = ""
    score = -$3 # default: lower ns/op (field 3) is better
    first = 1
    # fields after the iteration count come in value/unit pairs
    for (i = 3; i < NF; i += 2) {
        unit = $(i + 1)
        gsub(/[^A-Za-z0-9]+/, "_", unit)
        if (!first) fields = fields ", "
        fields = fields "\"" unit "\": " $i
        first = 0
        if (unit == "records_s") score = $i
    }
    if (!(name in best) || score > bestScore[name]) {
        best[name] = fields
        bestScore[name] = score
        if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
    }
}
END {
    print "{"
    print "  \"generated_by\": \"scripts/bench.sh\","
    print "  \"benchmarks\": {"
    for (i = 1; i <= n; i++) {
        printf "    \"%s\": {%s}%s\n", order[i], best[order[i]], (i < n ? "," : "")
    }
    print "  }"
    print "}"
}
' "$TMP" > "$OUT"
echo "wrote $OUT" >&2
