#!/usr/bin/env bash
# Perf-regression smoke: runs the engine benchmarks at reduced scale and
# compares them against the checked-in budget (scripts/alloc_budget.txt)
# on two axes. allocs/op fails when any benchmark exceeds its budget by
# more than 20% — the guard that keeps the hot path's recycling honest (an
# allocating View.Merge or an un-pooled payload shows up as a multiple,
# not a percentage); alloc *counts*, unlike wall-clock, are stable across
# machines. node-cycles/s fails when throughput falls more than 20% below
# the committed reference — references are set far enough below the
# reference container's numbers that only a structural slowdown (not a
# slow runner) can trip the floor.
set -euo pipefail
cd "$(dirname "$0")/.."

BUDGET=scripts/alloc_budget.txt
NODES=${ENGINE_BENCH_NODES:-20000}

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

ENGINE_BENCH_NODES=$NODES go test . -run '^$' \
    -bench BenchmarkEngineMillion -benchtime 1x -benchmem | tee "$tmp"
go test ./internal/sim/ -run '^$' \
    -bench 'BenchmarkRandomLiveNode|BenchmarkApplyShardsHotspot' \
    -benchtime 100x -benchmem | tee -a "$tmp"
go test ./internal/overlay/ -run '^$' -bench '^BenchmarkViewMerge$' \
    -benchtime 10000x -benchmem | tee -a "$tmp"

awk -v nodes="$NODES" '
    NR == FNR {
        if ($0 ~ /^#/ || NF < 2) next
        name = $1
        gsub(/\$NODES/, nodes, name)
        budget[name] = $2
        if (NF >= 3) floor[name] = $3
        next
    }
    /^Benchmark/ {
        a = -1
        t = -1
        for (i = 2; i <= NF; i++) {
            if ($i == "allocs/op") a = $(i - 1)
            if ($i == "node-cycles/s") t = $(i - 1)
        }
        name = $1
        sub(/-[0-9]+$/, "", name)
        if (!(name in budget) || a < 0) next
        seen[name] = 1
        limit = budget[name] * 1.2
        if (a + 0 > limit) {
            printf "FAIL %s: %d allocs/op exceeds budget %d (+20%% = %.0f)\n", name, a, budget[name], limit
            bad = 1
        } else {
            printf "ok   %s: %d allocs/op (budget %d)\n", name, a, budget[name]
        }
        if (name in floor) {
            min = floor[name] * 0.8
            if (t < 0) {
                printf "FAIL %s: no node-cycles/s metric but a throughput reference is committed\n", name
                bad = 1
            } else if (t + 0 < min) {
                printf "FAIL %s: %d node-cycles/s below reference %d (-20%% = %.0f)\n", name, t, floor[name], min
                bad = 1
            } else {
                printf "ok   %s: %d node-cycles/s (reference %d)\n", name, t, floor[name]
            }
        }
    }
    END {
        for (n in budget) if (!(n in seen)) {
            printf "FAIL budgeted benchmark %s did not run\n", n
            bad = 1
        }
        exit bad
    }
' "$BUDGET" "$tmp"
