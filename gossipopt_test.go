package gossipopt_test

import (
	"math"
	"testing"

	"gossipopt"
)

func TestFacadeQuickstart(t *testing.T) {
	net := gossipopt.New(gossipopt.Config{
		Nodes:       16,
		Particles:   8,
		GossipEvery: 8,
		Function:    gossipopt.Sphere,
		Seed:        1,
	})
	net.RunEvals(30000)
	if q := net.Quality(); q > 1e-6 {
		t.Fatalf("quality %g", q)
	}
	best, ok := net.GlobalBest()
	if !ok || len(best.X) != 10 {
		t.Fatalf("best = %+v ok=%v", best, ok)
	}
}

func TestFacadeFunctionByName(t *testing.T) {
	f, err := gossipopt.FunctionByName("Griewank")
	if err != nil || f.Name != "Griewank" {
		t.Fatalf("f=%v err=%v", f.Name, err)
	}
	if _, err := gossipopt.FunctionByName("NoSuch"); err == nil {
		t.Fatal("unknown function accepted")
	}
}

func TestFacadeSuites(t *testing.T) {
	if len(gossipopt.PaperSuite) != 6 {
		t.Fatalf("paper suite has %d functions", len(gossipopt.PaperSuite))
	}
	if len(gossipopt.ExtendedSuite) != 11 {
		t.Fatalf("extended suite has %d functions", len(gossipopt.ExtendedSuite))
	}
}

func TestFacadeSolverFactories(t *testing.T) {
	for name, factory := range map[string]gossipopt.SolverFactory{
		"pso":    gossipopt.PSOSolver(8, gossipopt.PSOConfig{}),
		"de":     gossipopt.DESolver(8),
		"sa":     gossipopt.SASolver(),
		"es":     gossipopt.ESSolver(),
		"random": gossipopt.RandomSolver(),
	} {
		s := factory(gossipopt.Sphere, 10, 0, gossipopt.NewRNG(1))
		for i := 0; i < 50; i++ {
			s.EvalOne()
		}
		if s.Evals() != 50 {
			t.Errorf("%s: evals = %d", name, s.Evals())
		}
		if _, f := s.Best(); math.IsInf(f, 0) || f < 0 {
			t.Errorf("%s: best = %v", name, f)
		}
	}
}

func TestFacadeMixedSolvers(t *testing.T) {
	mixed := gossipopt.MixedSolvers(gossipopt.ESSolver(), gossipopt.DESolver(8))
	net := gossipopt.New(gossipopt.Config{
		Nodes: 8, GossipEvery: 4, Function: gossipopt.Sphere, Seed: 2,
		SolverFactory: mixed,
	})
	net.RunEvals(20000)
	if q := net.Quality(); q > 1e-4 {
		t.Fatalf("mixed quality %g", q)
	}
}

func TestFacadeTopologies(t *testing.T) {
	for _, topo := range []gossipopt.TopologyKind{
		gossipopt.TopoNewscast, gossipopt.TopoRandom, gossipopt.TopoRing,
		gossipopt.TopoStar, gossipopt.TopoFull,
	} {
		net := gossipopt.New(gossipopt.Config{
			Nodes: 8, Particles: 8, GossipEvery: 8,
			Function: gossipopt.Sphere, Seed: 3, Topology: topo,
		})
		net.RunEvals(5000)
		if q := net.Quality(); math.IsInf(q, 1) {
			t.Errorf("%s: no progress", topo)
		}
	}
}
