package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gossipopt/internal/core"
	"gossipopt/internal/funcs"
	"gossipopt/internal/overlay"
	"gossipopt/internal/rng"
	"gossipopt/internal/sim"
	"gossipopt/internal/solver"
)

// The traced pass times calls into each layer from the benchmark's own
// code: a per-node wrapper around the Newscast protocol, a solver.Factory
// wrapping the PSO solver, and a wrapper around the objective's Eval. The
// wrappers draw no RNG and touch no engine state, so the traced run's
// outputs must equal the untraced run's (the spectator check). Each node
// owns one layerAcc, shared by its wrappers: the engine runs all of a
// node's handlers on one worker at a time, so the accumulators are
// node-local and need no synchronization; they are summed after the run.

// layerAcc holds one node's wrapper timings (nanoseconds) and call counts.
type layerAcc struct {
	ncReceiveNs, ncReceiveCalls, ncUndeliveredNs int64
	evalOneNs, evalOneCalls                      int64
	evalNs, evals                                int64
	injectNs, injectCalls                        int64
}

func (a *layerAcc) add(b *layerAcc) {
	a.ncReceiveNs += b.ncReceiveNs
	a.ncReceiveCalls += b.ncReceiveCalls
	a.ncUndeliveredNs += b.ncUndeliveredNs
	a.evalOneNs += b.evalOneNs
	a.evalOneCalls += b.evalOneCalls
	a.evalNs += b.evalNs
	a.evals += b.evals
	a.injectNs += b.injectNs
	a.injectCalls += b.injectCalls
}

// tracedNewscast wraps one node's Newscast instance, timing its handlers.
// It speaks the same two-phase contract and forwards the peer-sampling
// interface the coordination service reads from the topology slot.
type tracedNewscast struct {
	inner *overlay.Newscast
	acc   *layerAcc
}

var (
	_ sim.Proposer        = (*tracedNewscast)(nil)
	_ sim.Receiver        = (*tracedNewscast)(nil)
	_ sim.Undeliverable   = (*tracedNewscast)(nil)
	_ overlay.PeerSampler = (*tracedNewscast)(nil)
)

// Propose implements sim.Proposer by delegating, untimed.
func (t *tracedNewscast) Propose(n *sim.Node, px *sim.Proposals) { t.inner.Propose(n, px) }

// Receive implements sim.Receiver, timing the wrapped handler.
func (t *tracedNewscast) Receive(n *sim.Node, ax *sim.ApplyContext, msg sim.Message) {
	start := time.Now()
	t.inner.Receive(n, ax, msg)
	t.acc.ncReceiveNs += time.Since(start).Nanoseconds()
	t.acc.ncReceiveCalls++
}

// Undelivered implements sim.Undeliverable, timing the wrapped handler.
func (t *tracedNewscast) Undelivered(n *sim.Node, ax *sim.ApplyContext, msg sim.Message) {
	start := time.Now()
	t.inner.Undelivered(n, ax, msg)
	t.acc.ncUndeliveredNs += time.Since(start).Nanoseconds()
}

// SamplePeer implements overlay.PeerSampler by delegating.
func (t *tracedNewscast) SamplePeer(r *rng.RNG) (sim.NodeID, bool) { return t.inner.SamplePeer(r) }

// Neighbors implements overlay.PeerSampler by delegating.
func (t *tracedNewscast) Neighbors() []sim.NodeID { return t.inner.Neighbors() }

// tracedSolver wraps one node's solver, timing EvalOne and Inject.
type tracedSolver struct {
	inner solver.Solver
	acc   *layerAcc
}

var _ solver.Solver = (*tracedSolver)(nil)

// EvalOne implements solver.Solver, timing the wrapped call.
func (t *tracedSolver) EvalOne() float64 {
	start := time.Now()
	f := t.inner.EvalOne()
	t.acc.evalOneNs += time.Since(start).Nanoseconds()
	t.acc.evalOneCalls++
	return f
}

// Best implements solver.Solver by delegating.
func (t *tracedSolver) Best() ([]float64, float64) { return t.inner.Best() }

// Inject implements solver.Solver, timing and counting the wrapped call.
func (t *tracedSolver) Inject(x []float64, fx float64) bool {
	start := time.Now()
	ok := t.inner.Inject(x, fx)
	t.acc.injectNs += time.Since(start).Nanoseconds()
	t.acc.injectCalls++
	return ok
}

// Evals implements solver.Solver by delegating.
func (t *tracedSolver) Evals() int64 { return t.inner.Evals() }

// tracedFactory wraps base so every node's solver, and the objective it
// evaluates, report into a fresh per-node accumulator.
func tracedFactory(base solver.Factory) solver.Factory {
	return func(f funcs.Function, dim int, id int64, r *rng.RNG) solver.Solver {
		acc := new(layerAcc)
		eval := f.Eval
		f.Eval = func(x []float64) float64 {
			start := time.Now()
			v := eval(x)
			acc.evalNs += time.Since(start).Nanoseconds()
			acc.evals++
			return v
		}
		return &tracedSolver{inner: base(f, dim, id, r), acc: acc}
	}
}

// wrapTopology replaces every node's Newscast instance with a traced
// wrapper sharing the node's solver accumulator. Static topologies have
// no per-cycle work and stay unwrapped.
func wrapTopology(eng *sim.Engine) {
	for _, n := range eng.AllNodes() {
		nc, ok := n.Protocols[core.SlotTopology].(*overlay.Newscast)
		if !ok {
			continue
		}
		n.Protocols[core.SlotTopology] = &tracedNewscast{inner: nc, acc: nodeAcc(n)}
	}
}

// nodeAcc returns the accumulator of a node built by tracedFactory.
func nodeAcc(n *sim.Node) *layerAcc {
	if o, ok := n.Protocols[core.SlotOpt].(*core.OptNode); ok {
		if t, ok := o.Solver.(*tracedSolver); ok {
			return t.acc
		}
	}
	return new(layerAcc)
}

// sumLayers adds up every node's accumulator after a run.
func sumLayers(eng *sim.Engine) layerAcc {
	var total layerAcc
	for _, n := range eng.AllNodes() {
		if o, ok := n.Protocols[core.SlotOpt].(*core.OptNode); ok {
			if t, ok := o.Solver.(*tracedSolver); ok {
				total.add(t.acc)
			}
		}
	}
	return total
}

// engineDelta is the difference of two sim.EngineStats snapshots, summed
// over a pass's measured sections.
type engineDelta struct {
	cycles, proposeNs, applyNs             int64
	applyJobs, delivered, dropped, delayed int64
	payloadsRecycled, shardMax             int64
	shardMean                              float64
	// flHits and flMisses are the payload free-list counters over the
	// whole pass; they are process-global, so they are read around the
	// pass rather than per engine.
	flHits, flMisses int64
}

func (d *engineDelta) add(a, b sim.EngineStats) {
	d.cycles += b.Cycles - a.Cycles
	d.proposeNs += b.ProposeNanos - a.ProposeNanos
	d.applyNs += b.ApplyNanos - a.ApplyNanos
	d.applyJobs += b.ApplyJobs - a.ApplyJobs
	d.delivered += b.Delivered - a.Delivered
	d.dropped += b.Dropped - a.Dropped
	d.delayed += b.Delayed - a.Delayed
	d.payloadsRecycled += b.PayloadsRecycled - a.PayloadsRecycled
	d.shardMax += b.ShardMaxLoad - a.ShardMaxLoad
	d.shardMean += b.ShardMeanLoad - a.ShardMeanLoad
}

// span is one traced interval; times are nanoseconds since the pass began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps a traced pass's spans in memory until the run ends. A nil
// *spanLog records nothing, so untraced passes share the same code.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records a span and returns its id (0 on a nil log; ids start at 1,
// parent 0 means none).
func (l *spanLog) add(name string, parent int, start, end time.Time) int {
	id := l.open(name, parent, start)
	l.close(id, end)
	return id
}

// open starts a span whose children are recorded before it ends.
func (l *spanLog) open(name string, parent int, start time.Time) int {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Start: start.Sub(l.t0).Nanoseconds()})
	return len(l.spans)
}

// close ends the span opened as id.
func (l *spanLog) close(id int, end time.Time) {
	if l == nil || id == 0 {
		return
	}
	l.spans[id-1].End = end.Sub(l.t0).Nanoseconds()
}

// cycle records a cycle span plus its propose and apply phases, laid out
// back to back from the engine's per-cycle phase times.
func (l *spanLog) cycle(parent int, start, end time.Time, a, b sim.EngineStats) {
	if l == nil {
		return
	}
	id := l.add("cycle", parent, start, end)
	mid := start.Add(time.Duration(b.ProposeNanos - a.ProposeNanos))
	l.add("propose", id, start, mid)
	l.add("apply", id, mid, mid.Add(time.Duration(b.ApplyNanos-a.ApplyNanos)))
}

func (l *spanLog) len() int {
	if l == nil {
		return 0
	}
	return len(l.spans)
}

// writeFile writes the spans as JSON lines.
func (l *spanLog) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if l != nil {
		for _, s := range l.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerMetrics builds the per-layer metrics of a traced run from its
// untraced pass (allocation and GC counts, which the wrappers and span log
// would inflate), its traced pass (everything timed or counted per layer)
// and the optional single-worker baseline.
func layerMetrics(plain, traced pass, base *pass, o options) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	l, e := traced.layers, traced.engine
	secs := func(ns int64) float64 { return float64(ns) / 1e9 }
	perCall := func(ns, calls int64) float64 {
		if calls == 0 {
			return 0
		}
		return float64(ns) / float64(calls)
	}
	workers := 1.0
	if workloads[o.Workload].parallel {
		workers = float64(o.Workers)
	}
	engineCPU := secs(e.proposeNs+e.applyNs) * workers
	frac := func(ns int64) float64 {
		if engineCPU == 0 {
			return 0
		}
		return secs(ns) / engineCPU
	}

	m["overlay.newscast_receive_s"] = secs(l.ncReceiveNs)
	m["overlay.newscast_receive_calls"] = float64(l.ncReceiveCalls)
	m["overlay.newscast_receive_ns"] = perCall(l.ncReceiveNs, l.ncReceiveCalls)
	m["overlay.newscast_receive_frac"] = frac(l.ncReceiveNs)

	m["sim.propose_s"] = secs(e.proposeNs)
	m["sim.apply_s"] = secs(e.applyNs)
	// Apply time not spent in the wrapped handlers (Newscast Receive and
	// Undelivered, Solver.Inject), per apply worker: routing, shuffle,
	// dispatch and recycling, plus OptNode's own handler code around
	// Inject, which no wrapper reaches (core type-asserts the slot to
	// *core.OptNode). Dividing by the workers assumes balanced shards
	// (sim.shard_skew says how far they are). The campaign's networks are
	// built inside the scenario runner, so there it stays 0 rather than
	// equal to apply_s.
	if handlers := l.ncReceiveNs + l.ncUndeliveredNs + l.injectNs; l.evalOneCalls > 0 {
		m["sim.apply_other_s"] = secs(e.applyNs) - secs(handlers)/workers
	}
	if e.proposeNs+e.applyNs > 0 {
		m["sim.propose_frac"] = float64(e.proposeNs) / float64(e.proposeNs+e.applyNs)
	}
	m["sim.cycle_ms_p50"] = quantile(traced.cycleSeconds, 0.5) * 1e3
	m["sim.cycle_ms_p90"] = quantile(traced.cycleSeconds, 0.9) * 1e3
	m["sim.apply_jobs"] = float64(e.applyJobs)
	m["sim.delivered"] = float64(e.delivered)
	m["sim.dropped"] = float64(e.dropped)
	m["sim.delayed"] = float64(e.delayed)
	m["sim.payloads_recycled"] = float64(e.payloadsRecycled)
	m["sim.shard_skew"] = 1
	if e.shardMean > 0 {
		m["sim.shard_skew"] = float64(e.shardMax) / e.shardMean
	}
	if pe := plain.engine; pe.cycles > 0 {
		m["sim.allocs_per_cycle"] = plain.rt.allocs / float64(pe.cycles)
		m["sim.bytes_per_cycle"] = plain.rt.bytes / float64(pe.cycles)
	}
	if gets := e.flHits + e.flMisses; gets > 0 {
		m["sim.freelist_hit_rate"] = float64(e.flHits) / float64(gets)
	}
	m["runtime.gc_cycles"] = plain.rt.gcCycles
	if plain.rt.totalCPU > 0 {
		m["runtime.gc_cpu_frac"] = plain.rt.gcCPU / plain.rt.totalCPU
	}
	if base != nil {
		pe, be := plain.engine, base.engine
		if pe.proposeNs > 0 {
			m["sim.propose_parallel_eff"] = float64(be.proposeNs) / float64(pe.proposeNs) / float64(o.Workers)
		}
		if pe.applyNs > 0 {
			m["sim.apply_parallel_eff"] = float64(be.applyNs) / float64(pe.applyNs) / float64(o.Workers)
		}
	}

	m["pso.evalone_self_s"] = secs(l.evalOneNs - l.evalNs)
	m["pso.evalone_frac"] = frac(l.evalOneNs)
	m["pso.inject_calls"] = float64(l.injectCalls)
	m["funcs.evals"] = float64(l.evals)
	m["funcs.eval_s"] = secs(l.evalNs)
	m["funcs.eval_ns"] = perCall(l.evalNs, l.evals)

	m["core.quality_s"] = traced.quality.Seconds()
	m["core.exchanges"] = traced.info["exchanges"]
	m["core.adoptions"] = traced.info["adoptions"]
	m["core.tta_cycles"] = traced.info["tta_cycles"]
	m["core.final_log10_quality"] = traced.info["final_log10_quality"]

	c := traced.camp
	m["scenario.rep_s_p50"] = quantile(c.repSeconds, 0.5)
	m["scenario.rep_s_max"] = quantile(c.repSeconds, 1)
	m["scenario.event_rep_s"] = c.eventRepSeconds
	m["exp.rows"] = float64(c.rows)
	m["exp.emit_s"] = c.emit.Seconds()

	// The cost of tracing, as the slowdown of the workload's throughput;
	// on the campaign, whose traced layers (sink and progress) span both
	// parts, as the slowdown of the whole campaign.
	if o.Workload == "scenario-campaign" {
		if pc, tc := plain.e2e["campaign_s"], traced.e2e["campaign_s"]; pc > 0 {
			m["trace.overhead_frac"] = tc/pc - 1
		}
	} else if pr, tr := plain.e2e["node_cycles_per_s"], traced.e2e["node_cycles_per_s"]; pr > 0 && tr > 0 {
		m["trace.overhead_frac"] = pr/tr - 1
	}
	return m
}

func equalOutputs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// diffOutputs lists the first differing output lines.
func diffOutputs(a, b []string) string {
	var sb strings.Builder
	shown := 0
	for i := 0; i < max(len(a), len(b)) && shown < 5; i++ {
		var x, y string
		if i < len(a) {
			x = a[i]
		}
		if i < len(b) {
			y = b[i]
		}
		if x != y {
			fmt.Fprintf(&sb, "  untraced: %s\n  traced:   %s\n", x, y)
			shown++
		}
	}
	return sb.String()
}
