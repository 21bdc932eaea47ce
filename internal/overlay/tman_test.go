package overlay

import (
	"testing"

	"gossipopt/internal/sim"
)

// buildTManNet wires Newscast (slot 0) + TMan (slot 1) on n nodes.
func buildTManNet(seed uint64, n, c int) *sim.Engine {
	e := sim.NewEngine(seed)
	e.AddNodes(n)
	InitNewscast(e.LiveNodes(), e.RNG(), 0, 20)
	InitTMan(e, 1, 0, c, RingDistance(n))
	return e
}

func TestRingDistance(t *testing.T) {
	d := RingDistance(10)
	if d(0, 1) != 1 || d(0, 9) != 1 || d(0, 5) != 5 || d(3, 3) != 0 {
		t.Fatal("ring distance wrong")
	}
}

func TestTManConvergesToRing(t *testing.T) {
	const n = 64
	e := buildTManNet(1, n, 4)
	// Two-phase exchanges land at end of cycle (one hop per cycle), so the
	// ring needs roughly twice the cycles of the old inline engine.
	e.Run(60)
	// After convergence every node's two closest T-Man neighbors must be
	// its actual ring successors/predecessors (distance 1).
	perfect := 0
	e.ForEachLive(func(nd *sim.Node) {
		tm := nd.Protocol(1).(*TMan)
		nbrs := tm.Neighbors()
		if len(nbrs) < 2 {
			return
		}
		d := RingDistance(n)
		if d(nd.ID, nbrs[0]) == 1 && d(nd.ID, nbrs[1]) == 1 {
			perfect++
		}
	})
	if perfect < n*95/100 {
		t.Fatalf("only %d/%d nodes found both ring neighbors", perfect, n)
	}
}

func TestTManFasterThanRandomWalkWouldBe(t *testing.T) {
	// Convergence should be fast (O(log n)): by cycle 15 most of the ring
	// must be in place for n = 128.
	const n = 128
	e := buildTManNet(2, n, 4)
	e.Run(15)
	good := 0
	e.ForEachLive(func(nd *sim.Node) {
		tm := nd.Protocol(1).(*TMan)
		d := RingDistance(n)
		for _, nb := range tm.Neighbors() {
			if d(nd.ID, nb) == 1 {
				good++
				break
			}
		}
	})
	if good < n*80/100 {
		t.Fatalf("only %d/%d nodes adjacent to a ring neighbor by cycle 15", good, n)
	}
}

func TestTManViewInvariants(t *testing.T) {
	e := buildTManNet(3, 50, 6)
	e.Run(20)
	e.ForEachLive(func(nd *sim.Node) {
		tm := nd.Protocol(1).(*TMan)
		nbrs := tm.Neighbors()
		if len(nbrs) > 6 {
			t.Fatalf("view overflow: %d", len(nbrs))
		}
		seen := map[sim.NodeID]bool{}
		d := RingDistance(50)
		prev := -1.0
		for _, nb := range nbrs {
			if nb == nd.ID {
				t.Fatalf("node %d contains itself", nd.ID)
			}
			if seen[nb] {
				t.Fatalf("duplicate neighbor %d", nb)
			}
			seen[nb] = true
			if dist := d(nd.ID, nb); dist < prev {
				t.Fatal("neighbors not sorted by distance")
			} else {
				prev = dist
			}
		}
	})
}

func TestTManSurvivesCrashes(t *testing.T) {
	const n = 64
	e := buildTManNet(4, n, 4)
	e.Run(20)
	// Crash every fourth node; survivors must drop dead neighbors.
	for id := sim.NodeID(0); int(id) < n; id += 4 {
		e.Crash(id)
	}
	e.Run(20)
	e.ForEachLive(func(nd *sim.Node) {
		tm := nd.Protocol(1).(*TMan)
		// The closest neighbor must be live (dead ones are pruned on
		// contact).
		if id, ok := tm.closest(); ok {
			if tgt := e.Node(id); tgt == nil || !tgt.Alive {
				t.Fatalf("node %d still has dead closest neighbor %d", nd.ID, id)
			}
		}
	})
}

func TestTManEmptyView(t *testing.T) {
	tm := NewTMan(1, 4, 0, -1, RingDistance(8))
	if _, ok := tm.SamplePeer(nil); ok {
		t.Fatal("empty view sampled")
	}
	if _, ok := tm.closest(); ok {
		t.Fatal("closest on empty view")
	}
}

// TestTManPartitionNoLeak: two islands bootstrapped with zero knowledge of
// each other, separated by a delivery filter from the first cycle. Since
// every message now flows through the engine's mailbox, no view — T-Man's
// or the Newscast substrate's — may ever gain a cross-partition entry.
func TestTManPartitionNoLeak(t *testing.T) {
	const n = 40
	e := sim.NewEngine(7)
	e.AddNodes(n)
	e.SetDeliveryFilter(sim.SplitGroups(2))
	// Hand-wire both layers with same-parity-only bootstrap views.
	side := func(parity sim.NodeID) []sim.NodeID {
		var ids []sim.NodeID
		for id := parity; int(id) < n; id += 2 {
			ids = append(ids, id)
		}
		return ids
	}
	for _, nd := range e.AllNodes() {
		peers := make([]sim.NodeID, 0, n/2)
		for _, id := range side(nd.ID % 2) {
			if id != nd.ID {
				peers = append(peers, id)
			}
		}
		nc := NewNewscast(nd.ID, 8, 0)
		nc.Bootstrap(peers[:4])
		tm := NewTMan(nd.ID, 4, 1, 0, RingDistance(n))
		tm.Bootstrap(peers)
		nd.Protocols = []sim.Protocol{nc, tm}
	}
	for c := 0; c < 30; c++ {
		e.RunCycle()
		e.ForEachLive(func(nd *sim.Node) {
			for _, nb := range nd.Protocol(1).(*TMan).Neighbors() {
				if nb%2 != nd.ID%2 {
					t.Fatalf("cycle %d: T-Man view of node %d leaked cross-partition entry %d", c, nd.ID, nb)
				}
			}
			for _, nb := range nd.Protocol(0).(*Newscast).Neighbors() {
				if nb%2 != nd.ID%2 {
					t.Fatalf("cycle %d: Newscast view of node %d leaked cross-partition entry %d", c, nd.ID, nb)
				}
			}
		})
	}
}

// TestTManPartitionHealReadoption is the tombstone-semantics regression
// test: an *unreachable* (partitioned) closest neighbor must be dropped
// without a tombstone and re-adopted after the heal. Under the old
// behavior any failed contact tombstoned the live peer forever, so the
// ring could never re-form across a healed cut.
func TestTManPartitionHealReadoption(t *testing.T) {
	const n = 32
	e := buildTManNet(8, n, 4)
	e.Run(10) // let the ring start forming with cross-parity neighbors
	e.SetDeliveryFilter(sim.SplitGroups(2))
	e.Run(15) // every ring neighbor (distance 1 = opposite parity) is cut off
	d := RingDistance(n)
	e.ForEachLive(func(nd *sim.Node) {
		tm := nd.Protocol(1).(*TMan)
		for _, other := range e.AllNodes() {
			if other.ID != nd.ID && other.Alive && tm.Tombstoned(other.ID) {
				t.Fatalf("node %d tombstoned live-but-unreachable peer %d", nd.ID, other.ID)
			}
		}
	})
	e.SetDeliveryFilter(nil) // heal
	e.Run(25)
	readopted := 0
	e.ForEachLive(func(nd *sim.Node) {
		for _, nb := range nd.Protocol(1).(*TMan).Neighbors() {
			if d(nd.ID, nb) == 1 { // ring neighbors are opposite parity
				readopted++
				break
			}
		}
	})
	if readopted < n*80/100 {
		t.Fatalf("only %d/%d nodes re-adopted a cross-partition ring neighbor after heal", readopted, n)
	}
}

// TestTManCrashTombstones: a *confirmed* crash (dead destination) must
// still tombstone, so third-party merges cannot resurrect dead peers.
func TestTManCrashTombstones(t *testing.T) {
	e := buildTManNet(9, 16, 4)
	e.Run(10)
	e.Crash(3)
	e.Run(10)
	tombstoned := 0
	e.ForEachLive(func(nd *sim.Node) {
		tm := nd.Protocol(1).(*TMan)
		if tm.Tombstoned(3) {
			tombstoned++
			for _, nb := range tm.Neighbors() {
				if nb == 3 {
					t.Fatalf("node %d tombstoned node 3 but kept it in view", nd.ID)
				}
			}
		}
	})
	// Only a node that actually contacts the dead peer (it was the
	// closest view entry) confirms the crash; at least its ring successor
	// must have (the predecessor's equal-distance tie breaks to the lower
	// ID, so it may never initiate toward 3).
	if tombstoned < 1 {
		t.Fatal("no node tombstoned the confirmed-crashed peer")
	}
}

// TestTManReviveClearsTombstone: a tombstone records a *confirmed* crash,
// but a direct message from the tombstoned peer proves it restarted
// (scripted revive reuses the ID), so the tombstone must clear and the
// peer must be re-adopted.
func TestTManReviveClearsTombstone(t *testing.T) {
	const n = 16
	e := buildTManNet(11, n, 4)
	e.Run(10)
	e.Crash(3)
	e.Run(10) // node 4 contacts its closest neighbor 3 and tombstones it
	if !e.Node(4).Protocol(1).(*TMan).Tombstoned(3) {
		t.Fatal("precondition: node 4 did not tombstone crashed node 3")
	}
	e.Revive(3)
	// Model the restart the way a real deployment would: the rebooted host
	// comes back with a fresh T-Man state knowing only its bootstrap
	// contact — node 4 — so its first exchange is a direct message to 4
	// (whether the surviving pre-crash view would re-contact 4 first is
	// trace luck; the bootstrap makes the direct-contact path
	// deterministic).
	restarted := NewTMan(3, 4, 1, 0, RingDistance(n))
	restarted.Bootstrap([]sim.NodeID{4})
	e.Node(3).Protocols[1] = restarted
	e.Run(20)
	tm := e.Node(4).Protocol(1).(*TMan)
	if tm.Tombstoned(3) {
		t.Fatal("tombstone survived direct contact from the revived peer")
	}
	found := false
	for _, nb := range tm.Neighbors() {
		if nb == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("revived ring neighbor 3 not re-adopted by node 4: view %v", tm.Neighbors())
	}
}

// TestTManWorkerInvariant: the ported protocol runs on both parallel
// phases; its views must be bit-identical for every propose × apply
// worker combination.
func TestTManWorkerInvariant(t *testing.T) {
	views := func(workers, applyWorkers int) [][]sim.NodeID {
		e := sim.NewEngine(10)
		e.SetWorkers(workers)
		e.SetApplyWorkers(applyWorkers)
		e.AddNodes(64)
		InitNewscast(e.LiveNodes(), e.RNG(), 0, 20)
		InitTMan(e, 1, 0, 4, RingDistance(64))
		e.Run(20)
		out := make([][]sim.NodeID, 0, 64)
		e.ForEachLive(func(nd *sim.Node) {
			out = append(out, nd.Protocol(1).(*TMan).Neighbors())
		})
		return out
	}
	one := views(1, 1)
	for _, w := range [][2]int{{2, 1}, {1, 8}, {8, 2}, {8, 8}} {
		got := views(w[0], w[1])
		for i := range one {
			if len(one[i]) != len(got[i]) {
				t.Fatalf("node %d view size diverged at workers=%dx%d", i, w[0], w[1])
			}
			for j := range one[i] {
				if one[i][j] != got[i][j] {
					t.Fatalf("node %d view diverged at workers=%dx%d: %v vs %v", i, w[0], w[1], one[i], got[i])
				}
			}
		}
	}
}

// TestTManMergeDistanceCallsLinear pins the merge optimization: Distance
// is evaluated exactly once per distinct candidate, not O(k log k) times
// inside the sort comparator.
func TestTManMergeDistanceCallsLinear(t *testing.T) {
	calls := 0
	tm := NewTMan(0, 8, 0, -1, func(a, b sim.NodeID) float64 {
		calls++
		return RingDistance(64)(a, b)
	})
	first := make([]sim.NodeID, 0, 16)
	for id := sim.NodeID(1); id <= 16; id++ {
		first = append(first, id)
	}
	tm.merge(first)
	if calls != 16 {
		t.Fatalf("merge of 16 fresh candidates evaluated Distance %d times, want 16", calls)
	}
	calls = 0
	tm.merge([]sim.NodeID{20, 21, 22, 23})
	// 8 kept view entries + 4 new candidates, each ranked exactly once.
	if calls != 12 {
		t.Fatalf("merge re-ranking 8+4 ids evaluated Distance %d times, want 12", calls)
	}
}

// BenchmarkTManMerge exercises the protocol's hot path: folding a view-
// sized candidate batch into a full view, as every exchange does.
func BenchmarkTManMerge(b *testing.B) {
	const c = 20
	tm := NewTMan(0, c, 0, -1, RingDistance(4096))
	seed := make([]sim.NodeID, 0, c)
	for id := sim.NodeID(1); int(id) <= c; id++ {
		seed = append(seed, id*3)
	}
	tm.Bootstrap(seed)
	batch := make([]sim.NodeID, c)
	for i := range batch {
		batch[i] = sim.NodeID(2000 + i*5)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.merge(batch)
	}
}
