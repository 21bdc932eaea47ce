#!/usr/bin/env bash
# Runs the engine-scale benchmark suite (million-node stack, apply-shard
# scaling, hotspot sharding, live-node sampling, one Newscast view merge)
# and the whole workloads people run (the paper's Figure 1 cells, built-in
# scenario campaigns and a sweep), and records the parsed results as JSON
# in the next unused BENCH_<n>.json, alongside the machine context needed
# to read the numbers honestly — CPU count and GOMAXPROCS lead the record
# because worker speedups only show in wall-clock with real cores; on a
# single-CPU host the record carries a machine-readable "warning" field
# so downstream tooling does not have to infer it from "cpus". Since
# BENCH_7 the engine-scale benchmarks also report per-phase wall times
# (propose-ns/op, apply-ns/op) from the engine's instrumentation
# snapshot, so a scaling anomaly can be attributed to a phase instead of
# guessed at. Every "<value> <unit>" pair a benchmark reports is recorded,
# keyed by its unit ("ns/op" -> ns_per_op, "quality" -> quality).
#
# Overrides:
#   ENGINE_BENCH_NODES  population for BenchmarkEngineMillion (default 1e6)
#   BENCHTIME           go test -benchtime value (default 2x)
#   BENCH_OUT           output path (default: BENCH_<n>.json with n one past
#                       the highest existing record)
#
# An existing record is never overwritten: the script refuses before
# running anything.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ -n "${BENCH_OUT:-}" ]; then
    OUT=$BENCH_OUT
else
    last=0
    for f in BENCH_*.json; do
        n=${f#BENCH_}
        n=${n%.json}
        case $n in '' | *[!0-9]*) continue ;; esac
        if [ "$((10#$n))" -gt "$last" ]; then last=$((10#$n)); fi
    done
    OUT=BENCH_$((last + 1)).json
fi
if [ -e "$OUT" ]; then
    echo "bench.sh: $OUT exists; refusing to overwrite it (set BENCH_OUT to a new path)" >&2
    exit 1
fi
NODES=${ENGINE_BENCH_NODES:-1000000}
BENCHTIME=${BENCHTIME:-2x}
CPUS=$(nproc)
MAXPROCS=${GOMAXPROCS:-$CPUS}

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

ENGINE_BENCH_NODES=$NODES go test . -run '^$' \
    -bench 'BenchmarkEngineMillion|BenchmarkApplyShards$' \
    -benchtime "$BENCHTIME" -benchmem -timeout 0 | tee "$tmp"
go test ./internal/sim/ -run '^$' \
    -bench 'BenchmarkApplyShardsHotspot|BenchmarkRandomLiveNode' \
    -benchtime "$BENCHTIME" -benchmem -timeout 0 | tee -a "$tmp"
go test ./internal/overlay/ -run '^$' -bench '^BenchmarkViewMerge$' \
    -benchmem -timeout 0 | tee -a "$tmp"
go test . -run '^$' \
    -bench 'BenchmarkFigure1$|BenchmarkScenarioRun$|BenchmarkSweep$' \
    -benchtime "$BENCHTIME" -benchmem -timeout 0 | tee -a "$tmp"

{
    printf '{\n'
    printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
    printf '  "go": "%s",\n' "$(go version | awk '{print $3}')"
    printf '  "cpus": %s,\n' "$CPUS"
    printf '  "gomaxprocs": %s,\n' "$MAXPROCS"
    if [ "$CPUS" -eq 1 ]; then
        printf '  "warning": "single-cpu-host: wall-clock worker/sharding comparisons reflect scheduling overhead, not parallel speedup",\n'
    fi
    printf '  "engine_bench_nodes": %s,\n' "$NODES"
    printf '  "benchtime": "%s",\n' "$BENCHTIME"
    printf '  "note": "worker/sharding wall-clock comparisons only show speedups with cpus > 1: on a single-core host the pool is timesliced and shard scheduling is pure overhead. That is also the story of the balanced-vs-idmod hotspot ratio drifting across records (idmod/balanced ns/op: 0.73 in BENCH_6, 0.57 in BENCH_7 — idmod faster in both): as the per-job work got cheaper (dense arena in BENCH_7), the greedy bin-pack the balanced scheduler runs on the coordinator became a larger fraction of a single-CPU round, widening idmod'\''s edge. BENCH_10'\''s batched dispatch amortizes per-node overhead once per batch instead of once per job, which moves the single-CPU ratio back toward parity — but none of these wall-clock ratios is the contract. The balanced-vs-idmod scheduling win is pinned machine-independently by sim.TestBalancedShardingSpreadsHotspots (max shard load on aliased hubs: balanced <= 2x hub vs idmod >= 4x hub).",\n'
    printf '  "results": [\n'
    awk '
        /^Benchmark/ {
            name = $1
            sub(/-[0-9]+$/, "", name)
            line = sprintf("    {\"name\":\"%s\",\"iterations\":%s", name, $2)
            for (i = 3; i < NF; i += 2) {
                u = $(i + 1)
                if (u == "B/op") u = "bytes/op"
                gsub(/\//, "_per_", u)
                gsub(/-/, "_", u)
                line = line sprintf(",\"%s\":%s", u, $i)
            }
            lines[n++] = line "}"
        }
        END {
            for (i = 0; i < n; i++) printf "%s%s\n", lines[i], (i < n - 1 ? "," : "")
        }
    ' "$tmp"
    printf '  ]\n'
    printf '}\n'
} > "$OUT"

echo "wrote $OUT"
