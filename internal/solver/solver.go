// Package solver defines the framework's function-optimization service
// contract and several solvers beyond PSO — differential evolution,
// simulated annealing, a self-adaptive (1+1) evolution strategy, and pure
// random search. The paper's future work calls for exactly this: "the
// implementation of various different solvers to enrich the function
// evaluation service and then be able to test module diversification among
// peers". Any Solver can be plugged into a framework node and coordinated
// through the same epidemic best-value diffusion.
package solver

import (
	"math"

	"gossipopt/internal/funcs"
	"gossipopt/internal/rng"
	"gossipopt/internal/vec"
)

// Solver is the function-optimization service contract. One EvalOne call
// costs exactly one objective evaluation — the paper's unit of time — so
// the coordination layer can interleave gossip exchanges every r
// evaluations regardless of the solver inside.
type Solver interface {
	// EvalOne advances the search by exactly one function evaluation and
	// returns the fitness just computed.
	EvalOne() float64
	// Best returns the best position found (or injected) so far and its
	// fitness. The slice is owned by the solver.
	Best() ([]float64, float64)
	// Inject offers a remote best from the coordination service; the
	// solver adopts it when strictly better and reports whether it did.
	Inject(x []float64, fx float64) bool
	// Evals returns the number of evaluations performed so far.
	Evals() int64
}

// Factory builds a fresh solver for a node. Experiments pass factories so
// every simulated node gets an independent solver fed by its own RNG
// stream. The id is the node's stable identifier (its simulated NodeID, or
// 0 when there is no meaningful one): factories that vary per node — mixed
// deployments, search-space partitioning — key their choice off it, which
// keeps them deterministic and race-free when nodes are built on parallel
// workers (a shared round-robin counter would be neither).
type Factory func(f funcs.Function, dim int, id int64, r *rng.RNG) Solver

// Run drives s until budget evaluations are spent or the best fitness
// reaches threshold (negative disables). It returns the evaluations spent.
func Run(s Solver, budget int64, threshold float64) int64 {
	start := s.Evals()
	for s.Evals()-start < budget {
		s.EvalOne()
		if _, f := s.Best(); f <= threshold {
			break
		}
	}
	return s.Evals() - start
}

// best tracks the best-so-far state shared by the simple solvers.
type best struct {
	x []float64
	f float64
}

func newBest() best { return best{f: math.Inf(1)} }

func (b *best) offer(x []float64, f float64) bool {
	// NaN compares false against everything: adopted once, it would
	// replace a real best and then let any later point through. -Inf
	// would refuse every later point, the true optimum included. The one
	// test !(f > -Inf) rejects both.
	if !(f > math.Inf(-1)) || f >= b.f {
		return false
	}
	if b.x == nil || len(b.x) != len(x) {
		b.x = vec.Clone(x)
	} else {
		copy(b.x, x)
	}
	b.f = f
	return true
}

// RandomSearch samples the domain uniformly — the coordination-free
// baseline of the paper's "exploiting stochasticity" extreme.
type RandomSearch struct {
	f     funcs.Function
	dim   int
	rng   *rng.RNG
	b     best
	x     []float64
	evals int64
}

// NewRandomSearch creates a uniform random sampler over f.
func NewRandomSearch(f funcs.Function, dim int, r *rng.RNG) *RandomSearch {
	d := f.Dim(dim)
	return &RandomSearch{f: f, dim: d, rng: r, b: newBest(), x: make([]float64, d)}
}

// EvalOne implements Solver.
func (s *RandomSearch) EvalOne() float64 {
	for i := range s.x {
		s.x[i] = s.rng.UniformIn(s.f.Lo, s.f.Hi)
	}
	fx := s.f.Eval(s.x)
	s.evals++
	s.b.offer(s.x, fx)
	return fx
}

// Best implements Solver.
func (s *RandomSearch) Best() ([]float64, float64) { return s.b.x, s.b.f }

// Inject implements Solver. Random search has no state to steer, so the
// injection only improves the reported best.
func (s *RandomSearch) Inject(x []float64, fx float64) bool {
	if len(x) != s.dim {
		return false
	}
	return s.b.offer(x, fx)
}

// Evals implements Solver.
func (s *RandomSearch) Evals() int64 { return s.evals }
