package gossip

import (
	"fmt"
	"math"
	"testing"

	"gossipopt/internal/overlay"
	"gossipopt/internal/sim"
)

// buildNet wires n nodes with Newscast in slot 0 and the protocol built by
// mk in slot 1.
func buildNet(seed uint64, n int, mk func(id sim.NodeID) sim.Protocol) *sim.Engine {
	e := sim.NewEngine(seed)
	nodes := e.AddNodes(n)
	overlay.InitNewscast(e.LiveNodes(), e.RNG(), 0, 20)
	for _, nd := range nodes {
		nd.Protocols = append(nd.Protocols, mk(nd.ID))
	}
	return e
}

func intBetter(a, b int) bool { return a > b }

func newAE(mode Mode) *AntiEntropy[int] {
	return &AntiEntropy[int]{Slot: 0, SelfSlot: 1, Mode: mode, Better: intBetter}
}

func aeAt(e *sim.Engine, id sim.NodeID) *AntiEntropy[int] {
	return e.Node(id).Protocol(1).(*AntiEntropy[int])
}

func TestAntiEntropyConvergesPushPull(t *testing.T) {
	e := buildNet(1, 100, func(id sim.NodeID) sim.Protocol {
		ae := newAE(PushPull)
		ae.SetLocal(int(id)) // node 99 holds the best value
		return ae
	})
	e.Run(15) // push-pull spreads in O(log n) cycles
	e.ForEachLive(func(n *sim.Node) {
		if v, _ := aeAt(e, n.ID).Local(); v != 99 {
			t.Fatalf("node %d converged to %d, want 99", n.ID, v)
		}
	})
}

func TestAntiEntropyPushSlowerThanPushPull(t *testing.T) {
	countConverged := func(mode Mode, cycles int64) int {
		e := buildNet(2, 200, func(id sim.NodeID) sim.Protocol {
			ae := newAE(mode)
			ae.SetLocal(int(id))
			return ae
		})
		e.Run(cycles)
		n := 0
		e.ForEachLive(func(nd *sim.Node) {
			if v, _ := aeAt(e, nd.ID).Local(); v == 199 {
				n++
			}
		})
		return n
	}
	push := countConverged(Push, 6)
	pushpull := countConverged(PushPull, 6)
	if pushpull < push {
		t.Fatalf("push-pull (%d) slower than push (%d)", pushpull, push)
	}
}

// Property: a node's local value is monotone non-decreasing under Better.
func TestAntiEntropyMonotone(t *testing.T) {
	e := buildNet(3, 60, func(id sim.NodeID) sim.Protocol {
		ae := newAE(PushPull)
		ae.SetLocal(int(id))
		return ae
	})
	prev := make(map[sim.NodeID]int)
	e.ForEachLive(func(n *sim.Node) {
		v, _ := aeAt(e, n.ID).Local()
		prev[n.ID] = v
	})
	for c := 0; c < 20; c++ {
		e.RunCycle()
		e.ForEachLive(func(n *sim.Node) {
			v, _ := aeAt(e, n.ID).Local()
			if v < prev[n.ID] {
				t.Fatalf("node %d value regressed %d -> %d", n.ID, prev[n.ID], v)
			}
			prev[n.ID] = v
		})
	}
}

func TestAntiEntropySurvivesDrops(t *testing.T) {
	e := buildNet(4, 100, func(id sim.NodeID) sim.Protocol {
		ae := newAE(PushPull)
		ae.DropProb = 0.5
		ae.SetLocal(int(id))
		return ae
	})
	e.Run(40) // drops only slow diffusion down
	e.ForEachLive(func(n *sim.Node) {
		if v, _ := aeAt(e, n.ID).Local(); v != 99 {
			t.Fatalf("node %d stuck at %d despite 40 cycles", n.ID, v)
		}
	})
}

func TestAntiEntropySurvivesChurn(t *testing.T) {
	e := buildNet(5, 150, func(id sim.NodeID) sim.Protocol {
		ae := newAE(PushPull)
		ae.SetLocal(int(id))
		return ae
	})
	// Note: the best value (149) may crash; best surviving value must still
	// dominate. Crash 30 % after a few cycles.
	e.Run(3)
	e.SetChurn(&sim.CatastropheChurn{AtCycle: 3, Fraction: 0.3})
	e.Run(30)
	best := -1
	e.ForEachLive(func(n *sim.Node) {
		if v, _ := aeAt(e, n.ID).Local(); v > best {
			best = v
		}
	})
	e.ForEachLive(func(n *sim.Node) {
		if v, _ := aeAt(e, n.ID).Local(); v != best {
			t.Fatalf("node %d at %d, best is %d", n.ID, v, best)
		}
	})
}

func TestOfferSemantics(t *testing.T) {
	ae := newAE(PushPull)
	if _, has := ae.Local(); has {
		t.Fatal("fresh AE claims a value")
	}
	if !ae.Offer(5) {
		t.Fatal("first Offer rejected")
	}
	if ae.Offer(3) {
		t.Fatal("worse value adopted")
	}
	if !ae.Offer(9) {
		t.Fatal("better value rejected")
	}
	if v, _ := ae.Local(); v != 9 {
		t.Fatalf("Local = %d", v)
	}
}

func TestModeString(t *testing.T) {
	if Push.String() != "push" || Pull.String() != "pull" || PushPull.String() != "push-pull" {
		t.Fatal("Mode.String wrong")
	}
	if Mode(42).String() != "unknown" {
		t.Fatal("unknown mode string")
	}
}

func TestRumorReachesAll(t *testing.T) {
	e := buildNet(6, 200, func(id sim.NodeID) sim.Protocol {
		return &Rumor{Slot: 0, SelfSlot: 1, Fanout: 2, StopProb: 0.2}
	})
	e.Node(0).Protocol(1).(*Rumor).Seed()
	e.Run(20)
	if got := CountInformed(e, 1); got < 190 {
		t.Fatalf("only %d of 200 informed", got)
	}
}

func TestRumorStopProbOneDiesOut(t *testing.T) {
	// With StopProb = 1 every redundant contact kills the spreader; the
	// rumor should reach far fewer nodes than with StopProb = 0.1.
	spread := func(p float64) int {
		e := buildNet(7, 300, func(id sim.NodeID) sim.Protocol {
			return &Rumor{Slot: 0, SelfSlot: 1, Fanout: 1, StopProb: p}
		})
		e.Node(0).Protocol(1).(*Rumor).Seed()
		e.Run(60)
		return CountInformed(e, 1)
	}
	high := spread(1.0)
	low := spread(0.05)
	if high >= low {
		t.Fatalf("stop-prob trade-off inverted: p=1 reached %d, p=0.05 reached %d", high, low)
	}
}

func TestRumorRedundantCounted(t *testing.T) {
	e := buildNet(8, 50, func(id sim.NodeID) sim.Protocol {
		return &Rumor{Slot: 0, SelfSlot: 1, Fanout: 3, StopProb: 0.1}
	})
	e.Node(0).Protocol(1).(*Rumor).Seed()
	e.Run(30)
	var redundant int64
	e.ForEachLive(func(n *sim.Node) {
		redundant += n.Protocol(1).(*Rumor).Redundant
	})
	if redundant == 0 {
		t.Fatal("no redundant deliveries in a saturated network")
	}
}

// TestRumorPartitionIsolation: with a SplitGroups(2) partition in force
// from the first cycle, the rumor must never cross — zero infections
// outside the seed's island — while cross-partition pushes are dropped by
// the engine and reported to the sender as lost.
func TestRumorPartitionIsolation(t *testing.T) {
	e := buildNet(21, 100, func(id sim.NodeID) sim.Protocol {
		return &Rumor{Slot: 0, SelfSlot: 1, Fanout: 2, StopProb: 0.1}
	})
	e.SetDeliveryFilter(sim.SplitGroups(2))
	e.Node(0).Protocol(1).(*Rumor).Seed()
	e.Run(40)
	var lost int64
	e.ForEachLive(func(n *sim.Node) {
		r := n.Protocol(1).(*Rumor)
		if n.ID%2 == 1 && r.Informed() {
			t.Fatalf("rumor crossed the partition: node %d informed", n.ID)
		}
		lost += r.Lost
	})
	if got := CountInformed(e, 1); got < 40 {
		t.Fatalf("rumor did not saturate its own island: %d informed", got)
	}
	if e.Dropped() == 0 || lost == 0 {
		t.Fatalf("cross-partition pushes not accounted: dropped=%d lost=%d", e.Dropped(), lost)
	}
}

// TestAntiEntropyPartitionIsolation: under a parity partition no value may
// cross the cut — every even node's value stays even, every odd node's
// stays odd — and the filtered exchanges land in Lost.
func TestAntiEntropyPartitionIsolation(t *testing.T) {
	e := buildNet(22, 100, func(id sim.NodeID) sim.Protocol {
		ae := newAE(PushPull)
		ae.SetLocal(int(id))
		return ae
	})
	e.SetDeliveryFilter(sim.SplitGroups(2))
	e.Run(30)
	var lost int64
	e.ForEachLive(func(n *sim.Node) {
		ae := aeAt(e, n.ID)
		v, _ := ae.Local()
		if sim.NodeID(v)%2 != n.ID%2 {
			t.Fatalf("value %d leaked across the partition to node %d", v, n.ID)
		}
		lost += ae.Lost
	})
	if e.Dropped() == 0 || lost == 0 {
		t.Fatalf("cross-partition exchanges not accounted: dropped=%d lost=%d", e.Dropped(), lost)
	}
	// Each island still converges to its own best value.
	e.ForEachLive(func(n *sim.Node) {
		want := 98 + int(n.ID%2) // best even value is 98, best odd 99
		if v, _ := aeAt(e, n.ID).Local(); v != want {
			t.Fatalf("node %d at %d, island best is %d", n.ID, v, want)
		}
	})
}

// TestRumorSentCountsAttempts: Sent uses attempted-send semantics — the
// counter moves even when the contact is dead, with the failure recorded
// in Lost (previously sends to dead peers were silently uncounted).
func TestRumorSentCountsAttempts(t *testing.T) {
	e := buildNet(23, 20, func(id sim.NodeID) sim.Protocol {
		return &Rumor{Slot: 0, SelfSlot: 1, Fanout: 2, StopProb: 0}
	})
	e.Run(3) // let views fill
	seed := e.Node(0).Protocol(1).(*Rumor)
	seed.Seed()
	for id := sim.NodeID(1); id < 20; id++ {
		e.Crash(id) // every potential contact is dead
	}
	e.Run(5)
	if seed.Sent == 0 {
		t.Fatal("attempted sends to dead peers not counted in Sent")
	}
	if seed.Lost != seed.Sent {
		t.Fatalf("all contacts were dead, yet Lost=%d != Sent=%d", seed.Lost, seed.Sent)
	}
}

// TestAntiEntropySentLostAccounting: Sent counts initiations before the
// drop draw; DropProb=1 loses every one of them into Lost.
func TestAntiEntropySentLostAccounting(t *testing.T) {
	e := buildNet(24, 30, func(id sim.NodeID) sim.Protocol {
		ae := newAE(PushPull)
		ae.DropProb = 1
		ae.SetLocal(int(id))
		return ae
	})
	e.Run(10)
	var sent, lost, updated int64
	e.ForEachLive(func(n *sim.Node) {
		ae := aeAt(e, n.ID)
		sent += ae.Sent
		lost += ae.Lost
		updated += ae.Updated
	})
	if sent == 0 || lost != sent {
		t.Fatalf("total loss not accounted: sent=%d lost=%d", sent, lost)
	}
	if updated != 0 {
		t.Fatalf("values diffused despite 100%% drop: %d adoptions", updated)
	}
}

// TestRumorWorkerInvariant: the ported protocol participates in the
// parallel propose phase, so its full trace must be bit-identical for 1, 2
// and 8 workers.
func TestRumorWorkerInvariant(t *testing.T) {
	state := func(workers, applyWorkers int) []string {
		e := sim.NewEngine(25)
		e.SetWorkers(workers)
		e.SetApplyWorkers(applyWorkers)
		nodes := e.AddNodes(80)
		overlay.InitNewscast(e.LiveNodes(), e.RNG(), 0, 20)
		for _, nd := range nodes {
			nd.Protocols = append(nd.Protocols, &Rumor{Slot: 0, SelfSlot: 1, Fanout: 2, StopProb: 0.2})
		}
		e.Node(0).Protocol(1).(*Rumor).Seed()
		e.Run(15)
		out := make([]string, 0, 80)
		e.ForEachLive(func(n *sim.Node) {
			r := n.Protocol(1).(*Rumor)
			out = append(out, fmt.Sprintf("%d:%v/%v/%d/%d/%d", n.ID, r.Informed(), r.Hot(), r.Sent, r.Lost, r.Redundant))
		})
		return out
	}
	one := state(1, 1)
	for _, w := range [][2]int{{2, 1}, {1, 8}, {8, 2}, {8, 8}} {
		got := state(w[0], w[1])
		for i := range one {
			if one[i] != got[i] {
				t.Fatalf("trace diverged at workers=%dx%d: %s vs %s", w[0], w[1], one[i], got[i])
			}
		}
	}
}

// TestAntiEntropyWorkerInvariant: same guarantee for the anti-entropy port.
func TestAntiEntropyWorkerInvariant(t *testing.T) {
	state := func(workers, applyWorkers int) []int {
		e := sim.NewEngine(26)
		e.SetWorkers(workers)
		e.SetApplyWorkers(applyWorkers)
		nodes := e.AddNodes(80)
		overlay.InitNewscast(e.LiveNodes(), e.RNG(), 0, 20)
		for _, nd := range nodes {
			ae := newAE(PushPull)
			ae.DropProb = 0.2
			ae.SetLocal(int(nd.ID))
			nd.Protocols = append(nd.Protocols, ae)
		}
		e.Run(12)
		out := make([]int, 0, 80)
		e.ForEachLive(func(n *sim.Node) {
			v, _ := aeAt(e, n.ID).Local()
			out = append(out, v)
		})
		return out
	}
	one := state(1, 1)
	for _, w := range [][2]int{{2, 1}, {1, 8}, {8, 2}, {8, 8}} {
		got := state(w[0], w[1])
		for i := range one {
			if one[i] != got[i] {
				t.Fatalf("node %d diverged at workers=%dx%d: %d vs %d", i, w[0], w[1], one[i], got[i])
			}
		}
	}
}

func TestAverageConservesSumAndConverges(t *testing.T) {
	e := buildNet(9, 128, func(id sim.NodeID) sim.Protocol {
		a := &Average{Slot: 0, SelfSlot: 1}
		a.SetValue(float64(id))
		return a
	})
	want := Sum(e, 1)
	for c := 0; c < 40; c++ {
		e.RunCycle()
		if got := Sum(e, 1); math.Abs(got-want) > 1e-6*math.Abs(want) {
			t.Fatalf("sum drifted: %v -> %v at cycle %d", want, got, c)
		}
	}
	if s := Spread(e, 1); s > 1e-3 {
		t.Fatalf("spread %v after 40 cycles, want ~0", s)
	}
	// Every node's value must equal the true average.
	trueAvg := want / 128
	e.ForEachLive(func(n *sim.Node) {
		v := n.Protocol(1).(*Average).Value()
		if math.Abs(v-trueAvg) > 1e-3 {
			t.Fatalf("node %d at %v, want %v", n.ID, v, trueAvg)
		}
	})
}

func TestAverageSizeEstimation(t *testing.T) {
	// Classic trick: one node holds 1.0, the rest 0; the average is 1/n.
	const n = 64
	e := buildNet(10, n, func(id sim.NodeID) sim.Protocol {
		a := &Average{Slot: 0, SelfSlot: 1}
		if id == 0 {
			a.SetValue(1)
		}
		return a
	})
	e.Run(50)
	est := 1 / e.Node(3).Protocol(1).(*Average).Value()
	if est < n*0.9 || est > n*1.1 {
		t.Fatalf("size estimate %.1f, want ≈ %d", est, n)
	}
}

// TestAverageSpreadContracts: the delta exchange conserves the sum
// exactly, but when several exchanges touch one node in a cycle the pair
// may briefly land off the exact mean, so the spread is not monotone
// cycle-to-cycle anymore. It must still contract geometrically over any
// short window and converge to ~0.
func TestAverageSpreadContracts(t *testing.T) {
	e := buildNet(11, 100, func(id sim.NodeID) sim.Protocol {
		a := &Average{Slot: 0, SelfSlot: 1}
		a.SetValue(float64(id * id))
		return a
	})
	prev := Spread(e, 1)
	for c := 0; c < 60; c += 5 {
		e.Run(5)
		cur := Spread(e, 1)
		if cur > prev/2 {
			t.Fatalf("spread did not halve over cycles %d-%d: %v -> %v", c, c+5, prev, cur)
		}
		prev = cur
	}
	if prev > 1e-3 {
		t.Fatalf("spread %v after 60 cycles, want ~0", prev)
	}
}

// TestAverageWorkerInvariant: the ported protocol runs on both parallel
// phases, so its trace must be bit-identical for every propose × apply
// worker combination.
func TestAverageWorkerInvariant(t *testing.T) {
	values := func(workers, applyWorkers int) []float64 {
		e := sim.NewEngine(16)
		e.SetWorkers(workers)
		e.SetApplyWorkers(applyWorkers)
		nodes := e.AddNodes(64)
		overlay.InitNewscast(e.LiveNodes(), e.RNG(), 0, 20)
		for _, nd := range nodes {
			a := &Average{Slot: 0, SelfSlot: 1}
			a.SetValue(float64(nd.ID))
			nd.Protocols = append(nd.Protocols, a)
		}
		e.Run(10)
		out := make([]float64, 0, 64)
		e.ForEachLive(func(n *sim.Node) {
			out = append(out, n.Protocol(1).(*Average).Value())
		})
		return out
	}
	one := values(1, 1)
	for _, w := range [][2]int{{8, 1}, {1, 8}, {8, 8}} {
		got := values(w[0], w[1])
		for i := range one {
			if one[i] != got[i] {
				t.Fatalf("node %d diverged at workers=%dx%d: %v vs %v", i, w[0], w[1], one[i], got[i])
			}
		}
	}
}

// TestAverageLostExchanges: exchanges proposed to nodes that die before
// apply are reported through the Undeliverable hook.
func TestAverageLostExchanges(t *testing.T) {
	e := buildNet(17, 50, func(id sim.NodeID) sim.Protocol {
		a := &Average{Slot: 0, SelfSlot: 1}
		a.SetValue(float64(id))
		return a
	})
	e.Run(5) // let views fill with peers...
	for id := sim.NodeID(25); id < 50; id++ {
		e.Crash(id) // ...then kill half the network
	}
	e.Run(10)
	var lost int64
	e.ForEachLive(func(n *sim.Node) {
		lost += n.Protocol(1).(*Average).Lost
	})
	if lost == 0 {
		t.Fatal("no lost exchanges despite half the network dead")
	}
}

func TestAggregateMinConverges(t *testing.T) {
	e := buildNet(12, 100, func(id sim.NodeID) sim.Protocol {
		a := &Aggregate{Slot: 0, SelfSlot: 1, Combine: MinCombine}
		a.SetValue(float64(id) + 5)
		return a
	})
	e.Run(15)
	e.ForEachLive(func(n *sim.Node) {
		if v := n.Protocol(1).(*Aggregate).Value(); v != 5 {
			t.Fatalf("node %d min = %v, want 5", n.ID, v)
		}
	})
}

func TestAggregateMaxConverges(t *testing.T) {
	e := buildNet(13, 80, func(id sim.NodeID) sim.Protocol {
		a := &Aggregate{Slot: 0, SelfSlot: 1, Combine: MaxCombine}
		a.SetValue(float64(id))
		return a
	})
	e.Run(15)
	e.ForEachLive(func(n *sim.Node) {
		if v := n.Protocol(1).(*Aggregate).Value(); v != 79 {
			t.Fatalf("node %d max = %v, want 79", n.ID, v)
		}
	})
}

func TestAggregateMinMonotone(t *testing.T) {
	e := buildNet(14, 40, func(id sim.NodeID) sim.Protocol {
		a := &Aggregate{Slot: 0, SelfSlot: 1, Combine: MinCombine}
		a.SetValue(float64(id * 3))
		return a
	})
	prev := map[sim.NodeID]float64{}
	e.ForEachLive(func(n *sim.Node) {
		prev[n.ID] = n.Protocol(1).(*Aggregate).Value()
	})
	for c := 0; c < 10; c++ {
		e.RunCycle()
		e.ForEachLive(func(n *sim.Node) {
			v := n.Protocol(1).(*Aggregate).Value()
			if v > prev[n.ID] {
				t.Fatalf("min aggregate increased at node %d", n.ID)
			}
			prev[n.ID] = v
		})
	}
}

func TestEstimateSize(t *testing.T) {
	const n = 100
	e := buildNet(15, n, func(id sim.NodeID) sim.Protocol {
		a := &Average{Slot: 0, SelfSlot: 1}
		if id == 7 {
			a.SetValue(1)
		}
		return a
	})
	e.Run(60)
	est := EstimateSize(e.Node(42).Protocol(1).(*Average))
	if est < n*0.9 || est > n*1.1 {
		t.Fatalf("size estimate %.1f, want ≈ %d", est, n)
	}
	fresh := &Average{}
	if EstimateSize(fresh) != 0 {
		t.Fatal("estimate from zero value should be 0")
	}
}

// TestAverageConservesSumOnEventEngine runs the unmodified Average on the
// event engine under 20% link loss. Once every leg in flight has landed,
// the global sum equals the initial one within the cycle-engine test's
// tolerance — which holds only if a lost reply leg reaches its sender's
// Undelivered (the rollback) as surely as a lost request leg does.
func TestAverageConservesSumOnEventEngine(t *testing.T) {
	e := sim.NewEventEngine(19, sim.UniformLink{MinDelay: 0.1, MaxDelay: 1, LossProb: 0.2})
	nodes := e.AddNodes(128)
	overlay.InitNewscast(nodes, e.RNG(), 0, 20)
	avgs := make([]*Average, len(nodes))
	for i, nd := range nodes {
		avgs[i] = &Average{Slot: 0, SelfSlot: 1}
		avgs[i].SetValue(float64(nd.ID))
		nd.Protocols = append(nd.Protocols, avgs[i])
	}
	sum := func() (s, lo, hi float64) {
		lo, hi = math.Inf(1), math.Inf(-1)
		for _, a := range avgs {
			s += a.Value()
			lo, hi = math.Min(lo, a.Value()), math.Max(hi, a.Value())
		}
		return s, lo, hi
	}
	want, _, _ := sum()
	e.Start(10, 1)
	e.RunUntil(60, math.MaxInt64)
	e.AdvanceTo(60)

	// Drain: the slot keeps handling legs but proposes no more, so after
	// two maximal latencies nothing of Average's is in flight.
	type drain struct {
		sim.Receiver
		sim.Undeliverable
	}
	for i, nd := range nodes {
		nd.Protocols[1] = drain{avgs[i], avgs[i]}
	}
	e.RunUntil(63, math.MaxInt64)

	got, lo, hi := sum()
	if math.Abs(got-want) > 1e-6*math.Abs(want) {
		t.Fatalf("sum drifted under link loss: %v -> %v", want, got)
	}
	var lost int64
	for _, a := range avgs {
		lost += a.Lost
	}
	if lost == 0 {
		t.Fatal("loss 0.2 lost no averaging request")
	}
	if hi-lo > 1 {
		t.Fatalf("spread %v after 60 exchanges per node, want ~0", hi-lo)
	}
}
