// Package core implements the paper's primary contribution: the generic
// decentralized optimization framework of Section 3, composed of three
// services per node —
//
//   - a topology service (Newscast peer sampling, or any static topology)
//     maintaining the overlay used to find gossip partners;
//   - a function optimization service (a per-node PSO swarm by default,
//     or any solver.Solver) that spends one function evaluation per
//     simulation cycle;
//   - a coordination service: an anti-entropy epidemic that, every r local
//     evaluations, exchanges the node's swarm optimum ⟨g_p, f(g_p)⟩ with a
//     sampled peer, both sides keeping the better point.
//
// Network wires the three services onto a sim.Engine for n nodes and
// exposes the run/measure operations the paper's experiments need: run to
// a global evaluation budget, run to a quality threshold, and read the
// global best. EventNetwork wires the identical node stack onto the
// event-driven sim.EventEngine, where evaluations take time and every
// exchange leg is subject to link latency and loss — the paper's
// deployment target is, after all, fully asynchronous.
package core

import (
	"fmt"
	"math"

	"gossipopt/internal/funcs"
	"gossipopt/internal/overlay"
	"gossipopt/internal/pso"
	"gossipopt/internal/rng"
	"gossipopt/internal/sim"
	"gossipopt/internal/solver"
)

// Protocol slots used by the framework on every node.
const (
	// SlotTopology holds the PeerSampler (Newscast or Static).
	SlotTopology = 0
	// SlotOpt holds the OptNode (optimizer + coordination services).
	SlotOpt = 1
)

// BestPoint is the coordination service's payload: a position in the
// search space and its fitness. Wire payloads travel as pooled *BestPoint
// (sim.Recyclable) so a million-node cycle does not allocate one position
// snapshot per exchange; solvers copy on Inject, so recycling the buffer
// at cycle end is safe.
type BestPoint struct {
	X []float64
	F float64
}

// Better reports whether b is strictly better (lower fitness) than o.
func (b BestPoint) Better(o BestPoint) bool { return b.F < o.F }

var (
	bestPointPool      sim.FreeList[BestPoint]
	bestPointReplyPool sim.FreeList[bestPointReply]
)

// Recycle implements sim.Recyclable. The position buffer is kept (len 0)
// for reuse; senders must explicitly nil X when shipping a "no best yet"
// point, since nil-ness is semantic on this payload.
func (b *BestPoint) Recycle() {
	b.X = b.X[:0]
	bestPointPool.Put(b)
}

// OptNode is the per-node composition of the function optimization service
// and the coordination service. It speaks the engine's two-phase exchange
// contract: each cycle the propose phase spends exactly one function
// evaluation, and after every R evaluations it proposes one anti-entropy
// exchange of the node's best point, completed during the apply phase.
type OptNode struct {
	// Solver is the node's function optimization service.
	Solver solver.Solver
	// R is the gossip cycle length: one exchange every R local
	// evaluations. R <= 0 disables coordination entirely (the paper's
	// "without coordination" extreme of independent searches).
	R int
	// DropProb loses each initiated exchange with this probability
	// (message loss; §3.3.4 — only slows diffusion down).
	DropProb float64

	sinceGossip int

	// Metrics.
	Exchanges     int64 // initiated exchanges
	LostExchanges int64 // exchanges lost to drops or dead peers
	Adoptions     int64 // times a remote best was adopted locally
}

// Compile-time guards: sim.Protocol is untyped, so assert the two-phase
// contracts explicitly — a signature drift must fail the build, not turn
// the optimizer into a silent no-op.
var (
	_ sim.Proposer      = (*OptNode)(nil)
	_ sim.Receiver      = (*OptNode)(nil)
	_ sim.Undeliverable = (*OptNode)(nil)
)

// Propose implements sim.Proposer: spend one evaluation on the local
// solver and, every R evaluations, propose the paper's §3.3.3 exchange by
// mailing the node's best point ⟨g_p, f(g_p)⟩ to a sampled peer. Only the
// node's own state is touched; the exchange settles in Receive.
func (o *OptNode) Propose(n *sim.Node, px *sim.Proposals) {
	o.Solver.EvalOne()
	px.CountEvals(1)
	if o.R <= 0 {
		return
	}
	o.sinceGossip++
	if o.sinceGossip < o.R {
		return
	}
	o.sinceGossip = 0
	sampler, ok := n.Protocol(SlotTopology).(overlay.PeerSampler)
	if !ok {
		return
	}
	peerID, ok := sampler.SamplePeer(n.RNG)
	if !ok {
		return
	}
	o.Exchanges++
	if o.DropProb > 0 && n.RNG.Bool(o.DropProb) {
		o.LostExchanges++
		return
	}
	gx, gf := o.Solver.Best()
	bp := bestPointPool.Get()
	if gx != nil {
		bp.X = append(bp.X[:0], gx...) // solver-owned slice mutates; ship a snapshot
	} else {
		bp.X = nil // "no best yet" is signalled by a nil position
	}
	bp.F = gf
	px.Send(peerID, SlotOpt, bp)
}

// bestPointReply is the reply leg of the §3.3.3 exchange: the contacted
// peer's better point, mailed back for the initiator to adopt. Pooled like
// the request leg.
type bestPointReply struct {
	P BestPoint
}

// Recycle implements sim.Recyclable.
func (r *bestPointReply) Recycle() {
	r.P.X = r.P.X[:0]
	bestPointReplyPool.Put(r)
}

// Receive implements sim.Receiver, node-locally, completing the
// anti-entropy exchange: if the initiator p's point is better the
// contacted peer q adopts it, otherwise q replies with its own and p
// adopts it when the reply arrives. Both sides end with the better point.
func (o *OptNode) Receive(n *sim.Node, ax *sim.ApplyContext, msg sim.Message) {
	switch bp := msg.Data.(type) {
	case *BestPoint:
		rx, rf := o.Solver.Best()
		switch {
		case bp.X == nil && rx == nil:
			return
		case rx == nil || (bp.X != nil && bp.F < rf):
			// p's point wins: q adopts. Solvers copy on Inject (they never
			// retain the slice), which is what lets the pooled payload's
			// buffer be recycled at cycle end.
			if o.Solver.Inject(bp.X, bp.F) {
				o.Adoptions++
			}
		case bp.X == nil || rf < bp.F:
			// q's point wins: mail it back for p to adopt. Snapshotted into
			// the pooled reply because the solver keeps mutating its own
			// best slice.
			rep := bestPointReplyPool.Get()
			rep.P.X = append(rep.P.X[:0], rx...)
			rep.P.F = rf
			ax.Send(msg.From, msg.Slot, rep)
		}
	case *bestPointReply:
		// Inject adopts only if still strictly better than whatever the
		// initiator has meanwhile, so a stale reply cannot regress it.
		if o.Solver.Inject(bp.P.X, bp.P.F) {
			o.Adoptions++
		}
	}
}

// Undelivered implements sim.Undeliverable: the sampled peer was dead or
// unreachable, so the exchange is lost (the coordination layer's
// message-loss path). A lost reply leg is not a lost initiation and does
// not count.
func (o *OptNode) Undelivered(n *sim.Node, ax *sim.ApplyContext, msg sim.Message) {
	if _, initiated := msg.Data.(*BestPoint); initiated {
		o.LostExchanges++
	}
}

// TopologyKind selects the topology service implementation.
type TopologyKind int

// Topology service choices.
const (
	// TopoNewscast is the paper's choice: gossip-based peer sampling.
	TopoNewscast TopologyKind = iota
	// TopoRandom is a static k-regular random graph (Newscast's idealized
	// stationary shape, without maintenance traffic).
	TopoRandom
	// TopoRing is a static bidirectional ring.
	TopoRing
	// TopoStar is the master-slave star the paper contrasts with.
	TopoStar
	// TopoFull gives every node a full membership view.
	TopoFull
	// TopoCyclon uses the Cyclon shuffle-based peer sampling protocol
	// instead of Newscast.
	TopoCyclon
)

// String names the topology kind.
func (t TopologyKind) String() string {
	switch t {
	case TopoNewscast:
		return "newscast"
	case TopoRandom:
		return "random"
	case TopoRing:
		return "ring"
	case TopoStar:
		return "star"
	case TopoFull:
		return "full"
	case TopoCyclon:
		return "cyclon"
	}
	return "unknown"
}

// Config describes one distributed-optimization deployment, in the paper's
// notation: n nodes each running a swarm of k particles, exchanging the
// swarm optimum every r local evaluations over a view of size c.
type Config struct {
	// Nodes is n, the network size.
	Nodes int
	// Particles is k, the per-node swarm size (PSO default solver).
	Particles int
	// GossipEvery is r, the coordination cycle length in local
	// evaluations. The paper's default is r = k. Zero disables
	// coordination (independent swarms).
	GossipEvery int
	// ViewSize is Newscast's c (default 20).
	ViewSize int
	// Function is the objective; Dim overrides its default dimension when
	// positive.
	Function funcs.Function
	Dim      int
	// Seed makes the whole run reproducible.
	Seed uint64
	// Topology selects the topology service (default Newscast).
	Topology TopologyKind
	// PSO tunes the default PSO solver; ignored when SolverFactory is set.
	PSO pso.Config
	// SolverFactory, when non-nil, replaces the default per-node PSO
	// swarm (solver diversification; the paper's future work).
	SolverFactory solver.Factory
	// DropProb is the coordination message-loss probability.
	DropProb float64
	// Churn, when non-nil, is applied by the engine every cycle (cycle
	// engine only).
	Churn sim.ChurnModel
	// Workers is the cycle engine's pool parallelism for both cycle
	// phases (<= 1: single-threaded). ApplyWorkers, when positive,
	// overrides the apply-phase parallelism independently. The trace is
	// bit-identical for every (Workers, ApplyWorkers) combination. The
	// event engine is single-threaded and ignores both.
	Workers      int
	ApplyWorkers int
}

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 1
	}
	if c.Particles == 0 {
		c.Particles = 16
	}
	if c.ViewSize == 0 {
		c.ViewSize = 20
	}
	if c.Function.Eval == nil {
		c.Function = funcs.Sphere
	}
	return c
}

// InitTopology wires the selected topology service into protocol slot
// `slot` of every node in nodes, drawing bootstrap peers and static links
// from r (the engine RNG). Exposed so stacks other than the optimizer
// (e.g. the scenario layer's epidemic-protocol networks) wire the same
// substrate the same way, on either engine.
func InitTopology(nodes []*sim.Node, r *rng.RNG, slot int, kind TopologyKind, viewSize int) {
	switch kind {
	case TopoNewscast:
		overlay.InitNewscast(nodes, r, slot, viewSize)
	case TopoRandom:
		overlay.InitStatic(nodes, r, slot, overlay.KRegularRandom(viewSize))
	case TopoRing:
		overlay.InitStatic(nodes, r, slot, overlay.Ring)
	case TopoStar:
		overlay.InitStatic(nodes, r, slot, overlay.Star)
	case TopoFull:
		overlay.InitStatic(nodes, r, slot, overlay.FullMesh)
	case TopoCyclon:
		overlay.InitCyclon(nodes, r, slot, viewSize, viewSize/2)
	}
}

// newOptNode builds node id's optimizer + coordination service, its solver
// seeded from a split of the node's RNG r.
func (c Config) newOptNode(id sim.NodeID, r *rng.RNG) *OptNode {
	var s solver.Solver
	if c.SolverFactory != nil {
		s = c.SolverFactory(c.Function, c.Dim, int64(id), r.Split())
	} else {
		s = pso.New(c.Function, c.Dim, c.Particles, c.PSO, r.Split())
	}
	return &OptNode{Solver: s, R: c.GossipEvery, DropProb: c.DropProb}
}

// wire fills the initial population's stacks on either engine: the
// topology service in slot 0, bootstrapped from r, and an OptNode in
// slot 1.
func (c Config) wire(nodes []*sim.Node, r *rng.RNG) {
	InitTopology(nodes, r, SlotTopology, c.Topology, c.ViewSize)
	for _, n := range nodes {
		for len(n.Protocols) <= SlotOpt {
			n.Protocols = append(n.Protocols, nil)
		}
		n.Protocols[SlotOpt] = c.newOptNode(n.ID, n.RNG)
	}
}

// liveSet is what the measurements read from either engine.
type liveSet interface {
	ForEachLive(f func(n *sim.Node))
	Evals() int64
}

// measures is the measurement surface Network and EventNetwork share: one
// implementation of the global best, the quality metric, the coordination
// counters and the evaluation count, over whichever engine hosts the
// nodes.
type measures struct {
	cfg   Config
	nodes liveSet
}

// Config returns the network's (defaulted) configuration.
func (m measures) Config() Config { return m.cfg }

// TotalEvals returns the number of objective evaluations performed by all
// nodes, dead or alive — the paper's global budget e. O(1): the engine
// maintains the counter (fed by OptNode.Propose through CountEvals), so
// the per-cycle budget checks of RunEvals/RunUntil do not make a run
// quadratic in n.
func (m measures) TotalEvals() int64 { return m.nodes.Evals() }

// GlobalBest returns the best point known to any live node (the paper's
// global optimum g) and false if no node has evaluated yet.
func (m measures) GlobalBest() (BestPoint, bool) {
	best := BestPoint{F: math.Inf(1)}
	found := false
	m.nodes.ForEachLive(func(n *sim.Node) {
		o, ok := n.Protocol(SlotOpt).(*OptNode)
		if !ok {
			return
		}
		if x, f := o.Solver.Best(); x != nil && f < best.F {
			best = BestPoint{X: x, F: f}
			found = true
		}
	})
	return best, found
}

// Quality returns the paper's solution-quality metric for the current
// global best: f(best) − f(x*). Infinity before any evaluation.
func (m measures) Quality() float64 {
	b, ok := m.GlobalBest()
	if !ok {
		return math.Inf(1)
	}
	return b.F - m.cfg.Function.OptimumValue
}

// Metrics aggregates coordination-service counters across all nodes.
type Metrics struct {
	Exchanges, LostExchanges, Adoptions int64
}

// Metrics returns the summed coordination counters (live nodes only).
func (m measures) Metrics() Metrics {
	var out Metrics
	m.nodes.ForEachLive(func(n *sim.Node) {
		if o, ok := n.Protocol(SlotOpt).(*OptNode); ok {
			out.Exchanges += o.Exchanges
			out.LostExchanges += o.LostExchanges
			out.Adoptions += o.Adoptions
		}
	})
	return out
}

// Network is a running deployment of the framework on the cycle engine.
type Network struct {
	measures
	eng *sim.Engine
}

// NewNetwork builds and wires a network per cfg: n nodes, each with a
// topology service in slot 0 and an OptNode in slot 1. Nodes joining later
// through churn are wired identically and bootstrap their view from a
// random live node (the "bootstrap service" of a real deployment).
func NewNetwork(cfg Config) *Network {
	cfg = cfg.withDefaults()
	eng := sim.NewEngine(cfg.Seed)

	eng.SetWorkers(cfg.Workers)
	if cfg.ApplyWorkers > 0 {
		eng.SetApplyWorkers(cfg.ApplyWorkers)
	}

	// Factory handles churn-joined nodes; initial nodes are re-wired below.
	eng.SetNodeFactory(func(n *sim.Node) {
		nc := overlay.NewNewscast(n.ID, cfg.ViewSize, SlotTopology)
		if b := eng.RandomLiveNode(n.ID); b != nil {
			nc.Bootstrap([]sim.NodeID{b.ID})
		}
		n.Protocols = []sim.Protocol{nc, cfg.newOptNode(n.ID, n.RNG)}
	})

	cfg.wire(eng.AddNodes(cfg.Nodes), eng.RNG())

	if cfg.Churn != nil {
		eng.SetChurn(cfg.Churn)
	}
	return &Network{measures{cfg, eng}, eng}
}

// Engine exposes the underlying simulation engine.
func (net *Network) Engine() *sim.Engine { return net.eng }

// Step runs one simulation cycle: every live node spends one evaluation
// and gossips if due.
func (net *Network) Step() { net.eng.RunCycle() }

// ScanTotalEvals recomputes TotalEvals by walking every node's solver —
// the historical O(n) implementation, kept as a cross-check of the
// engine-maintained counter (tests assert they agree).
func (net *Network) ScanTotalEvals() int64 {
	var total int64
	for _, n := range net.eng.AllNodes() {
		if len(n.Protocols) > SlotOpt {
			if o, ok := n.Protocol(SlotOpt).(*OptNode); ok {
				total += o.Solver.Evals()
			}
		}
	}
	return total
}

// RunEvals runs cycles until at least totalEvals objective evaluations have
// been performed network-wide, the configuration of the paper's first
// three experiment sets. It returns the cycles executed.
func (net *Network) RunEvals(totalEvals int64) int64 {
	var cycles int64
	for net.TotalEvals() < totalEvals {
		if net.eng.LiveCount() == 0 {
			break
		}
		net.eng.RunCycle()
		cycles++
	}
	return cycles
}

// RunUntil runs cycles until the global solution quality reaches the
// threshold or the evaluation budget is exhausted. It returns the local
// time (cycles ≡ evaluations per node), the total evaluations spent, and
// whether the threshold was reached — the measurements of the paper's
// fourth experiment set.
func (net *Network) RunUntil(threshold float64, maxEvals int64) (cycles, evals int64, reached bool) {
	for {
		if net.Quality() <= threshold {
			return cycles, net.TotalEvals(), true
		}
		if net.TotalEvals() >= maxEvals || net.eng.LiveCount() == 0 {
			return cycles, net.TotalEvals(), false
		}
		net.eng.RunCycle()
		cycles++
	}
}

// EventNetwork is a running deployment of the framework on the event
// engine: the same node stack as Network, with slot timers in place of
// lock-step cycles.
type EventNetwork struct {
	measures
	eng *sim.EventEngine
}

// NewEventNetwork builds and wires an event-driven network per cfg (Churn,
// Workers and ApplyWorkers are cycle-engine settings and are ignored).
// Every node spends one evaluation per tick of its optimizer slot, which
// fires every evalTime × U(0.8, 1.2), and runs its topology service every
// newscastPeriod × U(0.8, 1.2) (a static topology ticks as a no-op).
// Every exchange leg travels over link (nil: zero latency, no loss).
func NewEventNetwork(cfg Config, evalTime, newscastPeriod float64, link sim.LinkModel) *EventNetwork {
	cfg = cfg.withDefaults()
	eng := sim.NewEventEngine(cfg.Seed, link)
	cfg.wire(eng.AddNodes(cfg.Nodes), eng.RNG())
	periods := make([]float64, SlotOpt+1)
	periods[SlotTopology] = newscastPeriod
	periods[SlotOpt] = evalTime
	eng.Start(periods...)
	return &EventNetwork{measures{cfg, eng}, eng}
}

// Engine exposes the underlying event engine.
func (net *EventNetwork) Engine() *sim.EventEngine { return net.eng }

// String summarizes the network.
func (net *Network) String() string {
	return fmt.Sprintf("core.Network{n=%d k=%d r=%d topo=%s f=%s evals=%d quality=%g}",
		net.cfg.Nodes, net.cfg.Particles, net.cfg.GossipEvery,
		net.cfg.Topology, net.cfg.Function.Name, net.TotalEvals(), net.Quality())
}

// MixedFactory round-robins over the given factories, assigning a
// different solver type to successive nodes — the paper's envisioned
// "module diversification among peers". The choice is keyed off the node
// ID (not a shared counter), so the assignment is deterministic and
// race-free even when node stacks are built on parallel workers.
func MixedFactory(factories ...solver.Factory) solver.Factory {
	return func(f funcs.Function, dim int, id int64, r *rng.RNG) solver.Solver {
		mk := factories[int(uint64(id)%uint64(len(factories)))]
		return mk(f, dim, id, r)
	}
}
