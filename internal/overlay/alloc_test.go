package overlay

import "testing"

// TestNewscastSteadyStateAllocs pins the allocation-free hot path: once
// views, payload free lists and engine scratch buffers are warm, a
// Newscast cycle should allocate (amortized) close to nothing per node: a
// warm 512-node cycle measures about one allocation in total (0.002/node).
// The 0.01/node budget leaves room for an occasional buffer regrowth and
// fails loudly if any per-exchange allocation creeps back in (one per
// node would be 1.0/node; the pre-arena engine spent ~10 per node per
// cycle on snapshots alone). The free lists hold strong references, so a GC mid-measurement
// no longer empties them (the sync.Pool era skipped this test under the
// race detector for exactly that reason; the budget now holds there too).
func TestNewscastSteadyStateAllocs(t *testing.T) {
	const n, c = 512, 20
	e := buildNewscastNet(9, n, c)
	defer e.Close()
	e.Run(30) // warm views, free lists, and engine scratch

	avg := testing.AllocsPerRun(20, func() { e.RunCycle() })
	perNode := avg / n
	if perNode > 0.01 {
		t.Fatalf("steady-state Newscast cycle allocates %.1f allocs (%.3f/node), budget 0.01/node", avg, perNode)
	}
}
