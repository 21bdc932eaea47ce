package overlay

import (
	"testing"

	"gossipopt/internal/sim"
)

// buildNewscastNet creates an engine with n nodes running Newscast in slot 0.
func buildNewscastNet(seed uint64, n, c int) *sim.Engine {
	e := sim.NewEngine(seed)
	e.AddNodes(n)
	InitNewscast(e.LiveNodes(), e.RNG(), 0, c)
	// Churn-joined nodes also need an instance: bootstrap from a random
	// live node, as a real deployment's bootstrap service would.
	e.SetNodeFactory(func(nd *sim.Node) {
		nc := NewNewscast(nd.ID, c, 0)
		if b := e.RandomLiveNode(nd.ID); b != nil {
			nc.Bootstrap([]sim.NodeID{b.ID})
		}
		nd.Protocols = []sim.Protocol{nc}
	})
	return e
}

func TestNewscastConnectivity(t *testing.T) {
	e := buildNewscastNet(1, 200, 20)
	e.Run(30)
	g := Snapshot(e, 0)
	if !IsConnected(g) {
		t.Fatalf("overlay disconnected: components %v", ConnectedComponents(g))
	}
}

func TestNewscastViewsFillUp(t *testing.T) {
	e := buildNewscastNet(2, 100, 20)
	e.Run(20)
	e.ForEachLive(func(n *sim.Node) {
		nc := n.Protocol(0).(*Newscast)
		if nc.View().Len() < 15 {
			t.Fatalf("node %d view has only %d entries after 20 cycles", n.ID, nc.View().Len())
		}
	})
}

func TestNewscastNoSelfNoDead(t *testing.T) {
	e := buildNewscastNet(3, 100, 10)
	e.Run(10)
	// Crash a third of the network, let the overlay heal.
	for id := sim.NodeID(0); id < 33; id++ {
		e.Crash(id)
	}
	e.Run(40)
	deadRefs := 0
	totalRefs := 0
	e.ForEachLive(func(n *sim.Node) {
		nc := n.Protocol(0).(*Newscast)
		for _, d := range nc.View().Descriptors() {
			if d.ID == n.ID {
				t.Fatalf("node %d has itself in view", n.ID)
			}
			totalRefs++
			if tgt := e.Node(d.ID); tgt == nil || !tgt.Alive {
				deadRefs++
			}
		}
	})
	// Self-healing: stale descriptors must have (almost) disappeared.
	if frac := float64(deadRefs) / float64(totalRefs); frac > 0.05 {
		t.Fatalf("%.1f%% of view entries still point at dead nodes after healing", frac*100)
	}
}

func TestNewscastHealsAfterMassCrash(t *testing.T) {
	e := buildNewscastNet(4, 300, 20)
	e.Run(20)
	// Kill 50 % of the network.
	live := e.LiveNodes()
	for i, n := range live {
		if i%2 == 0 {
			e.Crash(n.ID)
		}
	}
	e.Run(30)
	g := Snapshot(e, 0)
	if !IsConnected(g) {
		t.Fatalf("overlay failed to heal after 50%% crash: components %v", ConnectedComponents(g))
	}
}

func TestNewscastJoinersIntegrate(t *testing.T) {
	e := buildNewscastNet(5, 50, 10)
	e.Run(10)
	joiner := e.AddNode() // node factory bootstraps from node 0
	e.Run(15)
	nc := joiner.Protocol(0).(*Newscast)
	if nc.View().Len() < 5 {
		t.Fatalf("joiner's view has %d entries after 15 cycles", nc.View().Len())
	}
	// The joiner must also be known by others (in-degree > 0).
	g := Snapshot(e, 0)
	in := 0
	for _, nbrs := range g {
		for _, id := range nbrs {
			if id == joiner.ID {
				in++
			}
		}
	}
	if in == 0 {
		t.Fatal("joiner never entered anyone's view")
	}
}

func TestNewscastRandomGraphShape(t *testing.T) {
	e := buildNewscastNet(6, 400, 20)
	e.Run(40)
	g := Snapshot(e, 0)
	inStats, outStats := DegreeStats(g)
	// Out-degree is bounded by C; after warmup it should be close to C.
	if outStats.Avg < 17 || outStats.Avg > 20 {
		t.Fatalf("avg out-degree %.2f, want ≈ 20", outStats.Avg)
	}
	// In-degree should concentrate near C (no superhubs).
	if inStats.Max > 5*20 {
		t.Fatalf("max in-degree %v indicates hub formation", inStats.Max)
	}
	// Path length should be short (log n / log c ≈ 2).
	if apl, ok := AvgPathLength(g, 50); !ok || apl > 4 {
		t.Fatalf("avg path length %.2f (ok=%v), want < 4", apl, ok)
	}
	// Newscast's full view exchange leaves both partners with nearly
	// identical views, so clustering is elevated above a pure random
	// graph (2c/n = 0.1 here) — Jelasity et al. report the same effect.
	// It must still stay far below lattice-like values (~0.6+).
	if cc := ClusteringCoefficient(g); cc > 0.45 {
		t.Fatalf("clustering coefficient %.3f, want < 0.45", cc)
	}
}

func TestNewscastSamplePeerEmpty(t *testing.T) {
	nc := NewNewscast(1, 5, 0)
	if _, ok := nc.SamplePeer(nil); ok {
		t.Fatal("SamplePeer on empty view returned ok")
	}
}

func TestNewscastUnderContinuousChurn(t *testing.T) {
	e := buildNewscastNet(7, 200, 20)
	e.Run(10)
	e.SetChurn(&sim.RateChurn{CrashProb: 0.01, JoinPerCycle: 2, MinLive: 50})
	e.Run(50)
	g := Snapshot(e, 0)
	cc := ConnectedComponents(g)
	if len(cc) == 0 {
		t.Fatal("empty overlay")
	}
	// The giant component must cover nearly all live nodes.
	if frac := float64(cc[0]) / float64(e.LiveCount()); frac < 0.95 {
		t.Fatalf("giant component covers only %.1f%% under churn", frac*100)
	}
}
