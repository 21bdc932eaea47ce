package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"gossipopt/internal/core"
	"gossipopt/internal/funcs"
	"gossipopt/internal/overlay"
	"gossipopt/internal/pso"
	"gossipopt/internal/rng"
	"gossipopt/internal/sim"
	"gossipopt/internal/solver"
)

// newPass starts a pass: traced passes get a span log and turn on the
// engine's free-list counters, which are read around the whole pass.
func newPass(m mode) *pass {
	p := &pass{info: map[string]float64{}, e2e: map[string]float64{}}
	if m == modeTraced {
		p.spans = newSpanLog()
		sim.EnableFreeListStats(true)
		// The counters are process-global: the pass's share is their
		// value at finish minus their value now.
		hits, misses := sim.FreeListStats()
		p.engine.flHits, p.engine.flMisses = -hits, -misses
	}
	return p
}

// finish closes a traced pass's free-list window and returns the pass.
func (p *pass) finish() pass {
	if p.spans != nil {
		hits, misses := sim.FreeListStats()
		p.engine.flHits += hits
		p.engine.flMisses += misses
		sim.EnableFreeListStats(false)
	}
	return *p
}

// buildNetwork constructs a core network for the pass mode and returns it
// with the construction time, timed from a collected heap. A traced
// network gets the timing solver factory (around the same PSO swarm core
// builds by default) and, after construction, the Newscast wrappers; a
// baseline network runs on one worker.
func buildNetwork(cfg core.Config, m mode) (*core.Network, time.Duration) {
	switch m {
	case modeTraced:
		k, psoCfg := cfg.Particles, cfg.PSO
		cfg.SolverFactory = tracedFactory(func(f funcs.Function, dim int, _ int64, r *rng.RNG) solver.Solver {
			return pso.New(f, dim, k, psoCfg, r)
		})
	case modeBaseline:
		cfg.Workers, cfg.ApplyWorkers = 1, 0
	}
	// Every build starts from a collected heap, so whether a collection
	// falls inside the timed construction does not depend on what ran
	// before it.
	runtime.GC()
	start := time.Now()
	net := core.NewNetwork(cfg)
	d := time.Since(start)
	if m == modeTraced {
		wrapTopology(net.Engine())
	}
	return net, d
}

// stepper drives one network's cycles for a pass, timing each cycle and
// Quality call and, in traced passes, recording cycle times and spans.
type stepper struct {
	p      *pass
	net    *core.Network
	parent int
	start  sim.EngineStats
	rt     rtSnap
}

func newStepper(p *pass, net *core.Network, parent int) *stepper {
	return &stepper{p: p, net: net, parent: parent, start: net.Engine().Stats(), rt: readRuntime()}
}

// step runs one cycle and returns its wall time.
func (s *stepper) step() time.Duration {
	var a sim.EngineStats
	if s.p.spans != nil {
		a = s.net.Engine().Stats()
	}
	start := time.Now()
	s.net.Step()
	end := time.Now()
	if s.p.spans != nil {
		s.p.spans.cycle(s.parent, start, end, a, s.net.Engine().Stats())
	}
	d := end.Sub(start)
	if s.p.spans != nil {
		s.p.cycleSeconds = append(s.p.cycleSeconds, d.Seconds())
	}
	return d
}

// quality reads the network's solution quality, timing the scan.
func (s *stepper) quality() float64 {
	start := time.Now()
	q := s.net.Quality()
	s.p.quality += time.Since(start)
	return q
}

// done folds the network's engine-stats and allocation deltas and, for
// traced networks, the per-node layer timings into the pass.
func (s *stepper) done() {
	s.p.rt.add(s.rt, readRuntime())
	eng := s.net.Engine()
	s.p.engine.add(s.start, eng.Stats())
	if s.p.spans != nil {
		l := sumLayers(eng)
		s.p.layers.add(&l)
	}
	m := s.net.Metrics()
	s.p.info["exchanges"] += float64(m.Exchanges)
	s.p.info["adoptions"] += float64(m.Adoptions)
}

// outcome renders a network's deterministic end state for the spectator
// check: quality bits, coordination counters and the engine counters that
// do not depend on timing or worker count.
func outcome(label string, net *core.Network) string {
	st := net.Engine().Stats()
	m := net.Metrics()
	return fmt.Sprintf("%s cycles=%d evals=%d q=%x ex=%d lost=%d ad=%d delivered=%d dropped=%d jobs=%d recycled=%d digest=%s",
		label, st.Cycles, st.Evals, math.Float64bits(net.Quality()), m.Exchanges, m.LostExchanges, m.Adoptions,
		st.Delivered, st.Dropped, st.ApplyJobs, st.PayloadsRecycled, digest(net))
}

// digest hashes a network's full protocol state: every node's liveness,
// overlay view (descriptors with stamps, or static neighbors), best point,
// evaluation count and coordination counters, plus the engine counters.
// Equal digests at different worker counts are the repository's
// worker-invariance contract.
func digest(net *core.Network) string {
	h := fnv.New64a()
	eng := net.Engine()
	var buf []byte
	u := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	u(uint64(eng.Cycle()))
	u(uint64(eng.Evals()))
	u(uint64(eng.Delivered()))
	u(uint64(eng.Dropped()))
	for _, n := range eng.AllNodes() {
		u(uint64(n.ID))
		if n.Alive {
			u(1)
		} else {
			u(0)
		}
		top := n.Protocols[core.SlotTopology]
		if t, ok := top.(*tracedNewscast); ok {
			top = t.inner
		}
		switch t := top.(type) {
		case *overlay.Newscast:
			for _, d := range t.View().Descriptors() {
				u(uint64(d.ID))
				u(uint64(d.Stamp))
			}
		case overlay.PeerSampler:
			for _, id := range t.Neighbors() {
				u(uint64(id))
			}
		}
		if o, ok := n.Protocols[core.SlotOpt].(*core.OptNode); ok {
			x, f := o.Solver.Best()
			for _, v := range x {
				u(math.Float64bits(v))
			}
			u(math.Float64bits(f))
			u(uint64(o.Solver.Evals()))
			u(uint64(o.Exchanges))
			u(uint64(o.LostExchanges))
			u(uint64(o.Adoptions))
		}
		h.Write(buf)
		buf = buf[:0]
	}
	h.Write(buf)
	return fmt.Sprintf("%016x", h.Sum64())
}
