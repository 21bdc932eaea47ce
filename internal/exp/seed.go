// Package exp holds the measurement plumbing shared by every experiment:
// per-sample metric records and their byte-deterministic CSV/JSONL sinks,
// per-cell aggregation of sweep repetitions (CellSummary) and its summary
// tables and comparison report, engine-instrumentation summaries,
// convergence traces, and the repetition seed mixer. The experiments
// themselves are scenario sweeps (internal/scenario); cmd/exptables builds
// the paper's as sweeps and renders its tables and figures.
package exp

// SeedFor derives a deterministic repetition seed from a base seed and
// the repetition's indices (SplitMix64-style mixing). Sweeps use their
// cell index; single-spec campaigns (internal/scenario) pass cellIdx 0 —
// one mixer, so campaign and sweep seeding can never drift apart.
func SeedFor(base uint64, cellIdx, rep int) uint64 {
	x := base ^ uint64(cellIdx)*0x9e3779b97f4a7c15 ^ uint64(rep)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return x
}
