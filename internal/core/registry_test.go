package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"gossipopt/internal/funcs"
	"gossipopt/internal/rng"
)

func TestTopologyByName(t *testing.T) {
	for _, name := range TopologyNames() {
		k, err := TopologyByName(name)
		if err != nil {
			t.Fatalf("registered topology %q failed: %v", name, err)
		}
		if k.String() != name {
			t.Fatalf("round-trip %q -> %v -> %q", name, k, k.String())
		}
	}
	if k, err := TopologyByName("Newscast"); err != nil || k != TopoNewscast {
		t.Fatalf("lookup not case-insensitive: %v %v", k, err)
	}
	_, err := TopologyByName("hypercube")
	if err == nil || !strings.Contains(err.Error(), "newscast") {
		t.Fatalf("unknown-topology error must list names, got %v", err)
	}
}

func TestSolverByName(t *testing.T) {
	r := rng.New(1)
	for _, name := range SolverNames() {
		mk, err := SolverByName(name, 8)
		if err != nil {
			t.Fatalf("registered solver %q failed: %v", name, err)
		}
		s := mk(funcs.Sphere, 0, 0, r.Split())
		s.EvalOne()
		if s.Evals() != 1 {
			t.Fatalf("solver %q did not evaluate", name)
		}
	}
	_, err := SolverByName("gradient-descent", 8)
	if err == nil || !strings.Contains(err.Error(), "pso") {
		t.Fatalf("unknown-solver error must list names, got %v", err)
	}
}

func TestSolversByNameMixed(t *testing.T) {
	mk, err := SolversByName([]string{"pso", "sa"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(2)
	// Round-robin by id: even ids PSO, odd ids SA; both must work.
	for id := int64(0); id < 4; id++ {
		s := mk(funcs.Sphere, 0, id, r.Split())
		s.EvalOne()
		if s.Evals() != 1 {
			t.Fatalf("mixed solver for id %d did not evaluate", id)
		}
	}
	if _, err := SolversByName(nil, 4); err == nil {
		t.Fatal("empty solver list accepted")
	}
	if _, err := SolversByName([]string{"pso", "nope"}, 4); err == nil {
		t.Fatal("bad name inside list accepted")
	}
}

// TestInjectRejectsNaN: a NaN or -Inf fitness offered through Inject —
// which any gossip peer can send — is never adopted, neither over a real
// best nor as the first best of a fresh solver, and it does not block a
// later, better point (NaN compares false and nothing beats -Inf, so an
// adopted one would accept anything or refuse everything). A point of the
// wrong dimension is refused too. The zone-confined solver of
// PartitionedConfig is checked beside the registry's solvers.
func TestInjectRejectsNaN(t *testing.T) {
	const dim = 4
	point := func(v float64) []float64 {
		x := make([]float64, dim)
		for i := range x {
			x[i] = v
		}
		return x
	}
	zone := PartitionedConfig(Config{Nodes: 4, Particles: 8, Function: funcs.Sphere}).SolverFactory
	for _, name := range append(SolverNames(), "zone") {
		mk := zone
		if name != "zone" {
			var err error
			if mk, err = SolverByName(name, 8); err != nil {
				t.Fatal(err)
			}
		}
		t.Run(name, func(t *testing.T) {
			for _, bad := range []float64{math.NaN(), math.Inf(-1)} {
				t.Run(fmt.Sprint(bad), func(t *testing.T) {
					fresh := mk(funcs.Sphere, dim, 0, rng.New(1))
					if fresh.Inject(point(1), bad) {
						t.Fatalf("fresh solver adopted fitness %v", bad)
					}
					if !fresh.Inject(point(1), funcs.Sphere.Eval(point(1))) {
						t.Fatalf("fresh solver refused a real point after a %v offer", bad)
					}

					s := mk(funcs.Sphere, dim, 0, rng.New(2))
					for i := 0; i < 64; i++ {
						s.EvalOne()
					}
					_, before := s.Best()
					if before <= 0 || math.IsNaN(before) {
						t.Fatalf("unexpected best %v after 64 evaluations", before)
					}
					if s.Inject(point(3), bad) {
						t.Fatalf("fitness %v adopted over a real best", bad)
					}
					if _, f := s.Best(); f != before {
						t.Fatalf("best moved from %v to %v on a %v offer", before, f, bad)
					}
					if s.Inject(point(5), 1e300) {
						t.Fatalf("a far worse point was adopted after a %v offer", bad)
					}
					if s.Inject([]float64{0}, -1) {
						t.Fatal("a point of the wrong dimension was adopted")
					}
					if !s.Inject(point(0), 0) {
						t.Fatalf("a better point was refused after a %v offer", bad)
					}
					if _, f := s.Best(); f != 0 {
						t.Fatalf("best = %v after injecting the optimum, want 0", f)
					}
				})
			}
		})
	}
}
