package main

import (
	"math"
	"time"

	"gossipopt/internal/core"
	"gossipopt/internal/funcs"
)

// newscast-scale runs 100k nodes with a negligible objective, so the
// engine machinery, Newscast merging, memory and set-up dominate.
func init() {
	register(workload{name: "newscast-scale", parallel: true, run: runScale})
}

// scaleSize is the newscast-scale configuration.
type scaleSize struct {
	nodes, k, dim, r, c int
	// cyclesPerSecond sizes the measured cycles from -seconds (the
	// reference host's throughput divided by n, rounded down); setups is
	// the number of networks built for the set-up median.
	cyclesPerSecond float64
	setups          int
}

func scaleSizeFor(o options) scaleSize {
	if o.small {
		return scaleSize{nodes: 500, k: 2, dim: 2, r: 2, c: 8, cyclesPerSecond: 1e9, setups: 2}
	}
	return scaleSize{nodes: 100_000, k: 2, dim: 2, r: 2, c: 20, cyclesPerSecond: 0.6, setups: 3}
}

func runScale(o options, m mode) (pass, error) {
	sz := scaleSizeFor(o)
	measured := max(2, int(math.Round(o.Seconds*sz.cyclesPerSecond)))
	if o.small {
		measured = 4
	}
	cfg := core.Config{
		Nodes: sz.nodes, Particles: sz.k, Dim: sz.dim, GossipEvery: sz.r, ViewSize: sz.c,
		Function: funcs.Sphere, Seed: o.Seed, Workers: o.Workers,
	}
	p := newPass(m)
	heap := startHeapSampler(false)
	start := time.Now()
	wl := p.spans.open("workload", 0, start)
	var setups []float64

	net, d := buildNetwork(cfg, m)
	setups = append(setups, d.Seconds())
	p.spans.add("setup", wl, start, start.Add(d))
	// Warm one full gossip period, as BenchmarkEngineMillion does: the
	// payload free lists first fill on the first gossip cycle.
	for i := 0; i < sz.r; i++ {
		net.Step()
	}
	// The untraced run checks worker invariance on this prefix; traced
	// runs compare full final states against the workers=1 baseline pass.
	checkPrefix := m == modePlain && !o.Trace
	var prefix string
	if checkPrefix {
		prefix = digest(net)
	}

	measStart := time.Now()
	rs := p.spans.open("repetition", wl, measStart)
	st := newStepper(p, net, rs)
	var rates, cycleSecs []float64
	for i := 0; i < measured; i++ {
		evals := net.TotalEvals()
		live := net.Engine().LiveCount()
		d := st.step().Seconds()
		rates = append(rates, float64(sz.nodes)/d)
		cycleSecs = append(cycleSecs, d)
		// Every live node spends exactly one evaluation per cycle.
		p.check(net.TotalEvals()-evals == int64(live))
	}
	measEnd := time.Now()
	p.spans.close(rs, measEnd)
	st.done()
	heap.mark()
	q := st.quality()
	p.check(!math.IsNaN(q) && !math.IsInf(q, 0))
	p.outputs = append(p.outputs, outcome("final", net))
	p.digests = append(p.digests, digest(net))
	p.info["final_log10_quality"] = log10Quality(q)
	net.Engine().Close()

	if checkPrefix {
		// Replay the prefix on one worker: the final-state digest must
		// match the multi-worker one (the worker-invariance contract).
		one, d := buildNetwork(cfg, modeBaseline)
		setups = append(setups, d.Seconds())
		for i := 0; i < sz.r; i++ {
			one.Step()
		}
		p.check(digest(one) == prefix)
		one.Engine().Close()
		for len(setups) < sz.setups {
			extra, d := buildNetwork(cfg, m)
			setups = append(setups, d.Seconds())
			extra.Engine().Close()
		}
	}
	end := time.Now()
	p.spans.close(wl, end)

	p.e2e["setup_s"] = median(setups)
	p.e2e["node_cycles_per_s"] = median(rates)
	p.e2e["tta_s"] = median(cycleSecs)
	p.e2e["campaign_s"] = measEnd.Sub(measStart).Seconds()
	p.e2e["peak_heap_mb"] = heap.done()
	p.info["operations"] = float64(measured)
	return p.finish(), nil
}
