package core

import (
	"math"
	"testing"

	"gossipopt/internal/funcs"
	"gossipopt/internal/pso"
	"gossipopt/internal/rng"
	"gossipopt/internal/sim"
	"gossipopt/internal/solver"
)

func TestZonesCoverDomain(t *testing.T) {
	zones := Zones(funcs.Sphere, 8)
	if len(zones) != 8 {
		t.Fatalf("zones = %d", len(zones))
	}
	if zones[0][0] != funcs.Sphere.Lo || zones[7][1] != funcs.Sphere.Hi {
		t.Fatalf("zones do not span the domain: %v", zones)
	}
	for i := 1; i < len(zones); i++ {
		if zones[i][0] != zones[i-1][1] {
			t.Fatalf("zones not contiguous at %d: %v", i, zones)
		}
	}
}

func TestZoneEvalStaysInZone(t *testing.T) {
	// Evaluations through the zone remap must only probe the zone's slab
	// of the true domain for coordinate 0.
	f := funcs.Sphere
	lo, hi := 20.0, 40.0
	eval, toTrue := zoneEval(f, lo, hi)
	for _, x0 := range []float64{f.Lo, -3, 0, 55, f.Hi} {
		x := make([]float64, 10)
		x[0] = x0
		trueX := toTrue(x)
		if trueX[0] < lo-1e-9 || trueX[0] > hi+1e-9 {
			t.Fatalf("nominal %v mapped to %v outside zone [%v, %v]", x0, trueX[0], lo, hi)
		}
		// Value must equal f at the mapped point.
		if got, want := eval(x), f.Eval(trueX); math.Abs(got-want) > 1e-12 {
			t.Fatalf("eval mismatch: %v vs %v", got, want)
		}
	}
}

func TestPartitionedNetworkFindsOptimumInSomeZone(t *testing.T) {
	// Sphere's optimum (origin) lies in exactly one of 8 zones; the
	// network-wide best must still approach 0 because that zone's node
	// finds it and gossip spreads the value.
	cfg := PartitionedConfig(Config{
		Nodes: 8, Particles: 16, GossipEvery: 16,
		Function: funcs.Sphere, Seed: 1,
	})
	net := NewNetwork(cfg)
	net.RunEvals(64000)
	if q := net.Quality(); q > 1e-4 {
		t.Fatalf("partitioned quality %g", q)
	}
	gb, _ := net.GlobalBest()
	// The reported best must be in true coordinates: near the origin.
	for _, xi := range gb.X {
		if math.Abs(xi) > 1 {
			t.Fatalf("best reported in wrong coordinates: %v", gb.X)
		}
	}
}

func TestPartitionPreservedUnderGossip(t *testing.T) {
	// Nodes whose zone excludes the optimum must keep their *search* in
	// their zone even after learning a better remote value: their
	// reported best improves but their solver's own best stays zone-bound.
	cfg := PartitionedConfig(Config{
		Nodes: 4, Particles: 8, GossipEvery: 8,
		Function: funcs.Sphere, Seed: 2,
	})
	net := NewNetwork(cfg)
	net.RunEvals(16000)
	zones := Zones(funcs.Sphere, 4)
	perZoneBest := 0
	net.Engine().ForEachLive(func(n *sim.Node) {
		o := n.Protocol(SlotOpt).(*OptNode)
		zs, ok := o.Solver.(*zoneSolver)
		if !ok {
			t.Fatal("solver is not zone-wrapped")
		}
		x, _ := zs.inner.Best()
		if x == nil {
			return
		}
		// The inner best, mapped to true coordinates, must lie in one of
		// the four zones' slabs — specifically the node's own.
		trueX := zs.toTrue(x)
		for _, z := range zones {
			if trueX[0] >= z[0]-1e-6 && trueX[0] <= z[1]+1e-6 {
				perZoneBest++
				return
			}
		}
		t.Fatalf("inner best escaped all zones: %v", trueX[0])
	})
	if perZoneBest == 0 {
		t.Fatal("no zone-bound bests found")
	}
}

func TestPartitionedBeatsPlainOnDeceptiveSlab(t *testing.T) {
	// Shift Schwefel's optimum near the domain edge (x* ≈ 420.97 of
	// [-500, 500]): plain gossip PSO often gets trapped in the huge
	// central basin, while partitioning guarantees some node samples the
	// edge slab densely. Compare average quality across seeds.
	avg := func(partitioned bool) float64 {
		var sum float64
		const trials = 3
		for s := uint64(0); s < trials; s++ {
			cfg := Config{
				Nodes: 8, Particles: 8, GossipEvery: 8,
				Function: funcs.Schwefel, Seed: s,
			}
			if partitioned {
				cfg = PartitionedConfig(cfg)
			}
			net := NewNetwork(cfg)
			net.RunEvals(24000)
			sum += net.Quality()
		}
		return sum / trials
	}
	part, plain := avg(true), avg(false)
	// Partitioning must be competitive on this deceptive landscape; we
	// assert it is not catastrophically worse (and log the comparison).
	if part > plain*10+100 {
		t.Fatalf("partitioned %g vastly worse than plain %g", part, plain)
	}
	t.Logf("Schwefel: partitioned=%g plain=%g", part, plain)
}

func TestZoneSolverInjectReportOnly(t *testing.T) {
	eval, toTrue := zoneEval(funcs.Sphere, 50, 100)
	zf := funcs.Sphere
	zf.Eval = eval
	zs := &zoneSolver{
		inner:  newTestPSO(zf),
		toTrue: toTrue,
		dim:    10,
		bf:     math.Inf(1),
	}
	zs.EvalOne()
	if !zs.Inject([]float64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0) {
		t.Fatal("report-only injection rejected")
	}
	if _, f := zs.Best(); f != 0 {
		t.Fatalf("best %v after injection", f)
	}
	if zs.Inject([]float64{1}, 5) {
		t.Fatal("worse injection accepted")
	}
	if zs.Inject(nil, -1) {
		t.Fatal("empty injection accepted")
	}
}

// newTestPSO builds a small swarm for zone-solver unit tests.
func newTestPSO(f funcs.Function) solver.Solver {
	return pso.New(f, 10, 4, pso.Config{}, rng.New(9))
}
