package core

import (
	"math"
	"testing"

	"gossipopt/internal/funcs"
	"gossipopt/internal/sim"
)

// runFor advances an event network's clock by dt.
func runFor(net *EventNetwork, dt float64) {
	eng := net.Engine()
	eng.RunUntil(eng.Now()+dt, math.MaxInt64)
	eng.AdvanceTo(eng.Now() + dt)
}

// wanLink is the latency model the event-engine tests run over unless
// they say otherwise.
var wanLink = sim.UniformLink{MinDelay: 0.1, MaxDelay: 1}

func TestAsyncSingleNodeConverges(t *testing.T) {
	net := NewEventNetwork(Config{Nodes: 1, Particles: 16, GossipEvery: 16, Seed: 1}, 1, 10, wanLink)
	runFor(net, 40000)
	if q := net.Quality(); q > 1e-8 {
		t.Fatalf("quality %g after 40k time units (%d evals)", q, net.TotalEvals())
	}
}

func TestAsyncEvalsAccumulate(t *testing.T) {
	net := NewEventNetwork(Config{Nodes: 8, Particles: 8, GossipEvery: 8, Seed: 2}, 1, 10, wanLink)
	runFor(net, 1000)
	// 8 nodes × ~1000 evals (±20 % jitter), counted by the engine.
	if got := net.TotalEvals(); got < 6000 || got > 11000 {
		t.Fatalf("TotalEvals = %d, want ≈ 8000", got)
	}
	var scanned int64
	net.Engine().ForEachLive(func(n *sim.Node) {
		scanned += n.Protocol(SlotOpt).(*OptNode).Solver.Evals()
	})
	if scanned != net.TotalEvals() {
		t.Fatalf("engine counted %d evals, solvers %d", net.TotalEvals(), scanned)
	}
}

func TestAsyncGossipDiffuses(t *testing.T) {
	net := NewEventNetwork(Config{Nodes: 16, Particles: 8, GossipEvery: 8, Seed: 3}, 1, 10, wanLink)
	runFor(net, 4000)
	if m := net.Metrics(); m.Exchanges == 0 || m.Adoptions == 0 {
		t.Fatalf("no gossip traffic: %+v", m)
	}
	// All nodes should be near the global best.
	gb, ok := net.GlobalBest()
	if !ok {
		t.Fatal("no best")
	}
	net.Engine().ForEachLive(func(n *sim.Node) {
		if _, f := n.Protocol(SlotOpt).(*OptNode).Solver.Best(); f > gb.F*1e9+1e-3 {
			t.Fatalf("node %d best %g far from global %g", n.ID, f, gb.F)
		}
	})
}

func TestAsyncWithLatencyAndLoss(t *testing.T) {
	net := NewEventNetwork(Config{Nodes: 16, Particles: 8, GossipEvery: 8, Seed: 4}, 1, 10,
		sim.UniformLink{MinDelay: 1, MaxDelay: 20, LossProb: 0.3})
	runFor(net, 5000)
	if q := net.Quality(); q > 1e-4 {
		t.Fatalf("quality %g under 30%% loss and high latency", q)
	}
	if net.Engine().Dropped() == 0 {
		t.Fatal("no messages dropped at LossProb 0.3")
	}
	// Lost legs come back to the initiator as lost exchanges.
	if m := net.Metrics(); m.LostExchanges == 0 || m.LostExchanges >= m.Exchanges {
		t.Fatalf("lost %d of %d exchanges at LossProb 0.3", m.LostExchanges, m.Exchanges)
	}
}

func TestAsyncCrashTolerance(t *testing.T) {
	net := NewEventNetwork(Config{Nodes: 20, Particles: 8, GossipEvery: 8, Seed: 5}, 1, 10, wanLink)
	runFor(net, 500)
	for id := sim.NodeID(0); id < 10; id++ {
		net.Engine().Crash(id)
	}
	before := net.TotalEvals()
	runFor(net, 3000)
	// Only the 10 survivors evaluate: ≈ 30000 evals (±20 % jitter).
	if got := net.TotalEvals() - before; got < 24000 || got > 38000 {
		t.Fatalf("%d evals by 10 survivors in 3000 time units", got)
	}
	if q := net.Quality(); math.IsInf(q, 1) {
		t.Fatal("no best among survivors")
	}
}

// TestAsyncReviveSingleTimerChain: a revive landing before the crashed
// node's in-flight tick is delivered must not leave two parallel eval
// chains (the stale pre-crash tick is generation-filtered), so the eval
// rate after the restart stays the single-chain rate.
func TestAsyncReviveSingleTimerChain(t *testing.T) {
	net := NewEventNetwork(Config{Nodes: 1, Particles: 4, Seed: 8}, 1, 1e9, wanLink)
	runFor(net, 20)
	// Crash with a tick in flight, revive immediately: the old tick is
	// still queued and will arrive after the node is live again.
	net.Engine().Crash(0)
	net.Engine().Revive(0)
	before := net.TotalEvals()
	runFor(net, 40)
	got := net.TotalEvals() - before
	// Single chain: ~40 evals (jitter 0.8–1.2 bounds it to [33, 50]).
	// A duplicated chain would be ~80.
	if got > 55 {
		t.Fatalf("%d evals in 40 time units: stale pre-crash tick resumed a second chain", got)
	}
	if got < 20 {
		t.Fatalf("%d evals in 40 time units: revived node barely runs", got)
	}
}

func TestAsyncDeterministic(t *testing.T) {
	run := func() (float64, int64, Metrics) {
		net := NewEventNetwork(Config{Nodes: 8, Particles: 8, GossipEvery: 8, Function: funcs.Rastrigin, Seed: 6}, 1, 10,
			sim.UniformLink{MinDelay: 0.5, MaxDelay: 2, LossProb: 0.1})
		runFor(net, 2000)
		return net.Quality(), net.TotalEvals(), net.Metrics()
	}
	q1, e1, m1 := run()
	q2, e2, m2 := run()
	if q1 != q2 || e1 != e2 || m1 != m2 {
		t.Fatalf("non-deterministic: (%g, %d, %+v) vs (%g, %d, %+v)", q1, e1, m1, q2, e2, m2)
	}
}

// TestAsyncMatchesCycleDrivenShape runs the same core stack on both
// engines: on each, coordination (r = k) beats isolation at an equal
// budget on the multimodal Griewank function in at least 4 of 5 seeds, so
// the paper's central result is no artifact of lock-step execution.
func TestAsyncMatchesCycleDrivenShape(t *testing.T) {
	const nodes, evalsPerNode = 24, 500
	engines := map[string]func(Config) float64{
		"cycle": func(c Config) float64 {
			net := NewNetwork(c)
			net.RunEvals(nodes * evalsPerNode)
			return net.Quality()
		},
		"event": func(c Config) float64 {
			net := NewEventNetwork(c, 1, 10, wanLink)
			runFor(net, evalsPerNode)
			return net.Quality()
		},
	}
	for name, quality := range engines {
		wins := 0
		const trials = 5
		for seed := uint64(0); seed < trials; seed++ {
			cfg := Config{Nodes: nodes, Particles: 16, GossipEvery: 16, Function: funcs.Griewank, Seed: seed}
			with := quality(cfg)
			cfg.GossipEvery = 0
			if with <= quality(cfg) {
				wins++
			}
		}
		if wins < trials-1 {
			t.Fatalf("%s engine: coordination won only %d/%d trials", name, wins, trials)
		}
	}
}
