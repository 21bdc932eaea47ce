package main

import (
	"fmt"
	"math"
	"time"

	"gossipopt/internal/core"
	"gossipopt/internal/exp"
	"gossipopt/internal/funcs"
)

// paper-tta is the paper's Experiment 4 as a user reproducing it runs
// it: time and cycles to f-f* <= 1e-10 on the single-threaded engine.
func init() {
	register(workload{name: "paper-tta", run: runTTA})
}

// ttaSize is the paper-tta configuration: the paper's Experiment 4 shape.
type ttaSize struct {
	nodes, k, r, c, dim int
	fns                 []funcs.Function
	threshold           float64
	// capCycles bounds a repetition (the evaluation cap, in cycles).
	capCycles int64
	// roundSeconds is the measured wall time of one round (one repetition
	// per function) on the reference host; the run does
	// round(seconds/roundSeconds) rounds so its work is fixed by -seconds.
	roundSeconds float64
	// setups is the number of times each repetition's network is built,
	// for the set-up time median; chunk is the cycle chunk the robust
	// per-repetition time is estimated over.
	setups, chunk int
}

func ttaSizeFor(o options) ttaSize {
	if o.small {
		return ttaSize{nodes: 8, k: 8, r: 8, c: 4, dim: 4, fns: []funcs.Function{funcs.F2, funcs.Sphere},
			threshold: 1e-3, capCycles: 20000, roundSeconds: 1e9, setups: 2, chunk: 16}
	}
	return ttaSize{nodes: 64, k: 16, r: 16, c: 20, dim: 10,
		fns:       []funcs.Function{funcs.F2, funcs.Sphere, funcs.Zakharov},
		threshold: 1e-10, capCycles: 20000, roundSeconds: 5.5, setups: 4, chunk: 64}
}

// rounds maps the run length to a fixed number of rounds (at least one).
func rounds(seconds, roundSeconds float64) int {
	return max(1, int(math.Round(seconds/roundSeconds)))
}

func runTTA(o options, m mode) (pass, error) {
	sz := ttaSizeFor(o)
	p := newPass(m)
	heap := startHeapSampler(false)
	start := time.Now()
	wl := p.spans.open("workload", 0, start)

	var setups, chunkRates, repSecs []float64
	var cycles, logq []float64
	n := rounds(o.Seconds, sz.roundSeconds)
	for rep := 0; rep < n; rep++ {
		for fi, f := range sz.fns {
			cfg := core.Config{
				Nodes: sz.nodes, Particles: sz.k, GossipEvery: sz.r, ViewSize: sz.c,
				Function: f, Dim: sz.dim, Seed: exp.SeedFor(o.Seed, fi, rep),
			}
			var net *core.Network
			for s := 0; s < sz.setups; s++ {
				if net != nil {
					net.Engine().Close()
				}
				var d time.Duration
				net, d = buildNetwork(cfg, m)
				setups = append(setups, d.Seconds())
			}
			repStart := time.Now()
			rs := p.spans.open("repetition", wl, repStart)
			st := newStepper(p, net, rs)
			var c int64
			chunkStart := time.Now()
			q := st.quality()
			for q > sz.threshold && c < sz.capCycles {
				st.step()
				c++
				q = st.quality()
				if c%int64(sz.chunk) == 0 {
					now := time.Now()
					chunkRates = append(chunkRates, float64(sz.nodes*sz.chunk)/now.Sub(chunkStart).Seconds())
					chunkStart = now
				}
			}
			repEnd := time.Now()
			repSecs = append(repSecs, repEnd.Sub(repStart).Seconds())
			p.spans.close(rs, repEnd)
			st.done()
			heap.mark()
			cycles = append(cycles, float64(c))
			logq = append(logq, log10Quality(q))
			p.check(q <= sz.threshold)
			p.outputs = append(p.outputs, outcome(fmt.Sprintf("%s rep=%d", f.Name, rep), net))
			net.Engine().Close()
		}
	}
	end := time.Now()
	p.spans.close(wl, end)

	if len(chunkRates) == 0 { // test sizes: repetitions shorter than a chunk
		chunkRates = []float64{float64(sz.nodes) * sum(cycles) / sum(repSecs)}
	}
	p.e2e["setup_s"] = median(setups)
	p.e2e["node_cycles_per_s"] = median(chunkRates)
	// Time to the threshold, as measured: the mean over repetitions of the
	// wall time from the first cycle to the threshold, Quality scans
	// included. (A median would fall between the functions, whose
	// repetitions differ several-fold in length.)
	p.e2e["tta_s"] = mean(repSecs)
	p.e2e["campaign_s"] = end.Sub(start).Seconds()
	p.e2e["peak_heap_mb"] = heap.done()
	p.info["tta_cycles"] = mean(cycles)
	p.info["final_log10_quality"] = mean(logq)
	p.info["operations"] = float64(len(cycles))
	return p.finish(), nil
}
