package main

import (
	"fmt"
	"time"

	"gossipopt/internal/core"
	"gossipopt/internal/exp"
	"gossipopt/internal/funcs"
)

// static-swarm is the paper's topology ablation on a static random
// overlay: the same optimizer work with no View.Merge, so propose
// dominates.
func init() {
	register(workload{name: "static-swarm", parallel: true, run: runSwarm})
}

// swarmSize is the static-swarm configuration.
type swarmSize struct {
	nodes, k, r, c, dim int
	fns                 []funcs.Function
	// budget is the fixed per-node evaluation budget (cycles) of one
	// repetition; roundSeconds the reference host's wall time of one round
	// (a repetition per function), sizing the rounds from -seconds.
	budget       int64
	roundSeconds float64
	// chunk is the cycle chunk throughput is measured over; checkCycles
	// the prefix the untraced run replays on one worker.
	chunk, checkCycles int
}

func swarmSizeFor(o options) swarmSize {
	if o.small {
		return swarmSize{nodes: 256, k: 4, r: 4, c: 8, dim: 4, fns: []funcs.Function{funcs.Griewank, funcs.Rastrigin},
			budget: 40, roundSeconds: 1e9, chunk: 8, checkCycles: 12}
	}
	return swarmSize{nodes: 4096, k: 16, r: 16, c: 20, dim: 10, fns: []funcs.Function{funcs.Griewank, funcs.Rastrigin},
		budget: 1000, roundSeconds: 6.4, chunk: 16, checkCycles: 32}
}

func runSwarm(o options, m mode) (pass, error) {
	sz := swarmSizeFor(o)
	p := newPass(m)
	heap := startHeapSampler(false)
	start := time.Now()
	wl := p.spans.open("workload", 0, start)

	var setups, chunkRates, repSecs, logq []float64
	// The untraced run checks worker invariance on the first repetition's
	// prefix; traced runs compare every final state against the
	// workers=1 baseline pass.
	checkPrefix := m == modePlain && !o.Trace
	var prefix string
	var prefixCfg core.Config
	n := rounds(o.Seconds, sz.roundSeconds)
	for rep := 0; rep < n; rep++ {
		for fi, f := range sz.fns {
			cfg := core.Config{
				Nodes: sz.nodes, Particles: sz.k, GossipEvery: sz.r, ViewSize: sz.c,
				Function: f, Dim: sz.dim, Seed: exp.SeedFor(o.Seed, fi, rep),
				Topology: core.TopoRandom, Workers: o.Workers,
			}
			net, d := buildNetwork(cfg, m)
			setups = append(setups, d.Seconds())
			repStart := time.Now()
			rs := p.spans.open("repetition", wl, repStart)
			st := newStepper(p, net, rs)
			chunkStart := time.Now()
			var unbilled time.Duration // the prefix digest is not workload time
			for c := int64(1); c <= sz.budget; c++ {
				st.step()
				if c%int64(sz.chunk) == 0 {
					now := time.Now()
					chunkRates = append(chunkRates, float64(sz.nodes*sz.chunk)/now.Sub(chunkStart).Seconds())
					chunkStart = now
				}
				if checkPrefix && rep == 0 && fi == 0 && c == int64(sz.checkCycles) {
					d0 := time.Now()
					prefix, prefixCfg = digest(net), cfg
					chunkStart = time.Now()
					unbilled = chunkStart.Sub(d0)
				}
			}
			repEnd := time.Now()
			repSecs = append(repSecs, (repEnd.Sub(repStart) - unbilled).Seconds())
			p.spans.close(rs, repEnd)
			st.done()
			heap.mark()
			q := st.quality()
			logq = append(logq, log10Quality(q))
			// Every node spent exactly its budget.
			p.check(net.TotalEvals() == int64(sz.nodes)*sz.budget)
			p.outputs = append(p.outputs, outcome(fmt.Sprintf("%s rep=%d", f.Name, rep), net))
			p.digests = append(p.digests, digest(net))
			net.Engine().Close()
		}
	}
	measEnd := time.Now()

	if checkPrefix {
		// Replay the first repetition's prefix on one worker: its state
		// digest must match the multi-worker one.
		one, d := buildNetwork(prefixCfg, modeBaseline)
		setups = append(setups, d.Seconds())
		for i := 0; i < sz.checkCycles; i++ {
			one.Step()
		}
		p.check(digest(one) == prefix)
		one.Engine().Close()
	}
	p.spans.close(wl, time.Now())

	p.e2e["setup_s"] = median(setups)
	p.e2e["node_cycles_per_s"] = median(chunkRates)
	// Time to the budget, as measured: the mean over repetitions of the
	// wall time to spend it.
	p.e2e["tta_s"] = mean(repSecs)
	p.e2e["campaign_s"] = measEnd.Sub(start).Seconds()
	p.e2e["peak_heap_mb"] = heap.done()
	p.info["final_log10_quality"] = mean(logq)
	p.info["operations"] = float64(len(logq))
	return p.finish(), nil
}
