package overlay

import (
	"testing"

	"gossipopt/internal/rng"
	"gossipopt/internal/sim"
)

func degreeOK(t *testing.T, links [][]int, n int) {
	t.Helper()
	for i, nbrs := range links {
		seen := map[int]bool{}
		for _, j := range nbrs {
			if j < 0 || j >= n {
				t.Fatalf("node %d links to out-of-range %d", i, j)
			}
			if j == i {
				t.Fatalf("node %d links to itself", i)
			}
			if seen[j] {
				t.Fatalf("node %d links to %d twice", i, j)
			}
			seen[j] = true
		}
	}
}

func asGraph(links [][]int) map[sim.NodeID][]sim.NodeID {
	g := make(map[sim.NodeID][]sim.NodeID, len(links))
	for i, nbrs := range links {
		ids := make([]sim.NodeID, len(nbrs))
		for k, j := range nbrs {
			ids[k] = sim.NodeID(j)
		}
		g[sim.NodeID(i)] = ids
	}
	return g
}

func TestFullMesh(t *testing.T) {
	links := FullMesh(nil, 5)
	degreeOK(t, links, 5)
	for i, nbrs := range links {
		if len(nbrs) != 4 {
			t.Fatalf("node %d has degree %d", i, len(nbrs))
		}
	}
	if !IsConnected(asGraph(links)) {
		t.Fatal("full mesh disconnected")
	}
}

func TestRing(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 100} {
		links := Ring(nil, n)
		degreeOK(t, links, n)
		if n >= 3 {
			for i, nbrs := range links {
				if len(nbrs) != 2 {
					t.Fatalf("ring(%d) node %d degree %d", n, i, len(nbrs))
				}
			}
		}
		if n > 1 && !IsConnected(asGraph(links)) {
			t.Fatalf("ring(%d) disconnected", n)
		}
	}
	// Ring clustering is 0 (no triangles) and path length ~ n/4.
	g := asGraph(Ring(nil, 64))
	if cc := ClusteringCoefficient(g); cc != 0 {
		t.Fatalf("ring clustering = %v", cc)
	}
	if apl, ok := AvgPathLength(g, 0); !ok || apl < 10 {
		t.Fatalf("ring(64) path length %.2f, want ~16", apl)
	}
}

func TestStar(t *testing.T) {
	links := Star(nil, 10)
	degreeOK(t, links, 10)
	if len(links[0]) != 9 {
		t.Fatalf("hub degree %d", len(links[0]))
	}
	for i := 1; i < 10; i++ {
		if len(links[i]) != 1 || links[i][0] != 0 {
			t.Fatalf("spoke %d links %v", i, links[i])
		}
	}
	if !IsConnected(asGraph(links)) {
		t.Fatal("star disconnected")
	}
}

func TestGrid(t *testing.T) {
	for _, n := range []int{1, 4, 9, 12, 100} {
		links := Grid(nil, n)
		degreeOK(t, links, n)
		if n > 1 && !IsConnected(asGraph(links)) {
			t.Fatalf("grid(%d) disconnected", n)
		}
	}
	// Interior nodes of a 3x3 grid have degree 4.
	links := Grid(nil, 9)
	if len(links[4]) != 4 {
		t.Fatalf("grid center degree %d", len(links[4]))
	}
}

func TestKRegularRandom(t *testing.T) {
	r := rng.New(1)
	links := KRegularRandom(5)(r, 50)
	degreeOK(t, links, 50)
	for i, nbrs := range links {
		if len(nbrs) != 5 {
			t.Fatalf("node %d out-degree %d, want 5", i, len(nbrs))
		}
	}
	// k is capped at n-1.
	links = KRegularRandom(10)(r, 4)
	for _, nbrs := range links {
		if len(nbrs) != 3 {
			t.Fatalf("capped degree %d, want 3", len(nbrs))
		}
	}
}

func TestSmallWorld(t *testing.T) {
	r := rng.New(2)
	links := SmallWorld(4, 0.1)(r, 100)
	degreeOK(t, links, 100)
	g := asGraph(links)
	if !IsConnected(g) {
		t.Fatal("small world disconnected")
	}
	// With beta = 0 we get a pure lattice: high clustering.
	lattice := asGraph(SmallWorld(6, 0)(r, 100))
	ccLattice := ClusteringCoefficient(lattice)
	if ccLattice < 0.4 {
		t.Fatalf("lattice clustering %.3f, want > 0.4", ccLattice)
	}
	// Rewiring shortens paths.
	aplLattice, _ := AvgPathLength(lattice, 0)
	rewired := asGraph(SmallWorld(6, 0.2)(r, 100))
	aplRewired, _ := AvgPathLength(rewired, 0)
	if aplRewired >= aplLattice {
		t.Fatalf("rewiring did not shorten paths: %.2f vs %.2f", aplRewired, aplLattice)
	}
}

func TestStaticSampler(t *testing.T) {
	s := NewStatic(0, []sim.NodeID{1, 2, 3})
	r := rng.New(3)
	seen := map[sim.NodeID]bool{}
	for i := 0; i < 100; i++ {
		id, ok := s.SamplePeer(r)
		if !ok {
			t.Fatal("SamplePeer failed")
		}
		seen[id] = true
	}
	if len(seen) != 3 {
		t.Fatalf("sampled %d distinct peers, want 3", len(seen))
	}
	empty := NewStatic(0, nil)
	if _, ok := empty.SamplePeer(r); ok {
		t.Fatal("empty static sampler returned ok")
	}
}

func TestInitStatic(t *testing.T) {
	e := sim.NewEngine(4)
	e.AddNodes(16)
	InitStatic(e.LiveNodes(), e.RNG(), 0, Ring)
	g := Snapshot(e, 0)
	if !IsConnected(g) {
		t.Fatal("InitStatic ring disconnected")
	}
	for _, nbrs := range g {
		if len(nbrs) != 2 {
			t.Fatalf("ring degree %d", len(nbrs))
		}
	}
}

func TestSnapshotSkipsDeadTargets(t *testing.T) {
	e := sim.NewEngine(5)
	e.AddNodes(3)
	InitStatic(e.LiveNodes(), e.RNG(), 0, FullMesh)
	e.Crash(2)
	g := Snapshot(e, 0)
	if len(g) != 2 {
		t.Fatalf("snapshot has %d nodes, want 2", len(g))
	}
	for id, nbrs := range g {
		for _, nb := range nbrs {
			if nb == 2 {
				t.Fatalf("node %d still links to dead node", id)
			}
		}
	}
}
