package overlay

import (
	"testing"

	"gossipopt/internal/sim"
)

func buildCyclonNet(seed uint64, n, c, l int) *sim.Engine {
	e := sim.NewEngine(seed)
	e.AddNodes(n)
	InitCyclon(e.LiveNodes(), e.RNG(), 0, c, l)
	return e
}

func TestCyclonConnectivity(t *testing.T) {
	e := buildCyclonNet(1, 200, 20, 10)
	e.Run(30)
	g := Snapshot(e, 0)
	if !IsConnected(g) {
		t.Fatalf("cyclon overlay disconnected: %v", ConnectedComponents(g))
	}
}

func TestCyclonViewInvariants(t *testing.T) {
	e := buildCyclonNet(2, 100, 10, 5)
	e.Run(30)
	e.ForEachLive(func(n *sim.Node) {
		cy := n.Protocol(0).(*Cyclon)
		if cy.View().Len() > 10 {
			t.Fatalf("view overflow: %d", cy.View().Len())
		}
		if cy.View().Contains(n.ID) {
			t.Fatalf("node %d contains itself", n.ID)
		}
	})
}

func TestCyclonInDegreeTighterThanNewscast(t *testing.T) {
	// Cyclon's swap-based shuffle preserves in-degree distribution more
	// tightly than Newscast's merge. Compare max in-degree.
	ec := buildCyclonNet(3, 300, 20, 10)
	ec.Run(40)
	inC, _ := DegreeStats(Snapshot(ec, 0))

	en := sim.NewEngine(3)
	en.AddNodes(300)
	InitNewscast(en.LiveNodes(), en.RNG(), 0, 20)
	en.Run(40)
	inN, _ := DegreeStats(Snapshot(en, 0))

	if inC.Max > inN.Max*1.5 {
		t.Fatalf("cyclon max in-degree %v much worse than newscast %v", inC.Max, inN.Max)
	}
	// Both average near the view size.
	if inC.Avg < 10 || inC.Avg > 25 {
		t.Fatalf("cyclon avg in-degree %v, want near 20", inC.Avg)
	}
}

func TestCyclonSelfHeals(t *testing.T) {
	e := buildCyclonNet(4, 200, 20, 10)
	e.Run(20)
	for id := sim.NodeID(0); id < 100; id++ {
		e.Crash(id)
	}
	e.Run(60) // shuffling with oldest entries flushes the dead
	dead, total := 0, 0
	e.ForEachLive(func(n *sim.Node) {
		cy := n.Protocol(0).(*Cyclon)
		for _, d := range cy.View().Descriptors() {
			total++
			if tgt := e.Node(d.ID); tgt == nil || !tgt.Alive {
				dead++
			}
		}
	})
	if total == 0 {
		t.Fatal("views emptied out")
	}
	if frac := float64(dead) / float64(total); frac > 0.10 {
		t.Fatalf("%.1f%% dead entries after healing", frac*100)
	}
	if !IsConnected(Snapshot(e, 0)) {
		t.Fatal("overlay disconnected after 50% crash")
	}
}

func TestCyclonShuffleLengthDefault(t *testing.T) {
	cy := NewCyclon(1, 20, 0, 0)
	if cy.L != 10 {
		t.Fatalf("default L = %d, want C/2", cy.L)
	}
	cy = NewCyclon(1, 1, 0, 0)
	if cy.L != 1 {
		t.Fatalf("L floor = %d", cy.L)
	}
	cy = NewCyclon(1, 10, 99, 0)
	if cy.L != 5 {
		t.Fatalf("oversized L not clamped: %d", cy.L)
	}
}

func TestCyclonAsPeerSampler(t *testing.T) {
	e := buildCyclonNet(5, 50, 10, 5)
	e.Run(10)
	n := e.LiveNodes()[0]
	cy := n.Protocol(0).(*Cyclon)
	seen := map[sim.NodeID]bool{}
	for i := 0; i < 200; i++ {
		id, ok := cy.SamplePeer(n.RNG)
		if !ok {
			t.Fatal("sample failed")
		}
		seen[id] = true
	}
	if len(seen) < 2 {
		t.Fatalf("sampling not diverse: %d distinct", len(seen))
	}
}

func TestCyclonEmptyView(t *testing.T) {
	cy := NewCyclon(1, 10, 5, 0)
	if _, ok := cy.SamplePeer(nil); ok {
		t.Fatal("empty view sampled")
	}
	if _, ok := cy.oldest(); ok {
		t.Fatal("oldest on empty view")
	}
}
