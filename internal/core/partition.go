package core

import (
	"math"

	"gossipopt/internal/funcs"
	"gossipopt/internal/pso"
	"gossipopt/internal/rng"
	"gossipopt/internal/solver"
	"gossipopt/internal/vec"
)

// Search-space partitioning: the paper's Section 3.2 names, besides
// best-point broadcasting, an alternative coordination strategy —
// "partitioning of the search space in non-overlapping zones under the
// responsibility of each node". This file implements it: the domain is
// split into n equal slabs along the first coordinate, and node i's
// solver samples only slab i. Gossip still diffuses the best ⟨x, f(x)⟩
// found anywhere, so the network-wide result aggregates all zones, but a
// node never *moves its search* outside its own zone: injected remote
// bests update the node's reported best without steering its solver
// (steering would collapse the partition back into a plain swarm).
//
// Partitioning trades robustness for coverage: every zone is searched for
// sure (good on deceptive landscapes where the optimum hides in an
// unattractive slab), but a crashed node's zone is orphaned until a
// churn-joined replacement picks it up.

// zoneEval remaps coordinate 0 of the nominal box [Lo, Hi] affinely onto
// the zone [zoneLo, zoneHi] before evaluating f, so an unmodified solver
// exploring the nominal box effectively searches only the zone.
func zoneEval(f funcs.Function, zoneLo, zoneHi float64) (eval funcs.Objective, toTrue func([]float64) []float64) {
	width := f.Hi - f.Lo
	zw := zoneHi - zoneLo
	toTrue = func(x []float64) []float64 {
		out := vec.Clone(x)
		out[0] = zoneLo + (x[0]-f.Lo)/width*zw
		return out
	}
	inner := f.Eval
	eval = func(x []float64) float64 {
		tmp := vec.Clone(x)
		tmp[0] = zoneLo + (x[0]-f.Lo)/width*zw
		return inner(tmp)
	}
	return eval, toTrue
}

// zoneSolver wraps a solver confined to a zone. Best() reports in true
// coordinates; Inject() only updates the reported best (no steering).
type zoneSolver struct {
	inner  solver.Solver
	toTrue func([]float64) []float64
	dim    int

	bx []float64 // reported best in true coordinates
	bf float64
}

// EvalOne implements solver.Solver.
func (z *zoneSolver) EvalOne() float64 {
	fx := z.inner.EvalOne()
	if x, f := z.inner.Best(); x != nil && f < z.bf {
		z.bx = z.toTrue(x)
		z.bf = f
	}
	return fx
}

// Best implements solver.Solver (true coordinates).
func (z *zoneSolver) Best() ([]float64, float64) { return z.bx, z.bf }

// Inject implements solver.Solver: report-only adoption, preserving the
// zone partition. Like every solver it refuses a NaN or -Inf fitness and a
// point of the wrong dimension.
func (z *zoneSolver) Inject(x []float64, fx float64) bool {
	if !(fx > math.Inf(-1)) || fx >= z.bf || len(x) != z.dim {
		return false
	}
	z.bx = vec.Clone(x)
	z.bf = fx
	return true
}

// Evals implements solver.Solver.
func (z *zoneSolver) Evals() int64 { return z.inner.Evals() }

var _ solver.Solver = (*zoneSolver)(nil)

// PartitionedConfig derives a Config whose n nodes search non-overlapping
// slabs of the domain while gossiping best values. Zones are assigned
// round-robin by node ID, so churn-joined replacements cycle through the
// zones again and orphaned slabs are eventually re-covered — and the
// assignment stays deterministic when node stacks are built in parallel.
func PartitionedConfig(base Config) Config {
	base = base.withDefaults()
	n := base.Nodes
	f := base.Function
	width := f.Hi - f.Lo
	k := base.Particles
	psoCfg := base.PSO
	base.SolverFactory = func(_ funcs.Function, dim int, id int64, r *rng.RNG) solver.Solver {
		zone := int(uint64(id) % uint64(n))
		lo := f.Lo + float64(zone)/float64(n)*width
		hi := f.Lo + float64(zone+1)/float64(n)*width
		eval, toTrue := zoneEval(f, lo, hi)
		zf := f
		zf.Name = f.Name + "+zone"
		zf.Eval = eval
		return &zoneSolver{
			inner:  pso.New(zf, dim, k, psoCfg, r),
			toTrue: toTrue,
			dim:    dim,
			bf:     math.Inf(1),
		}
	}
	return base
}

// Zones returns the n slab boundaries ([lo, hi] pairs) assigned by
// PartitionedConfig, for inspection and tests.
func Zones(f funcs.Function, n int) [][2]float64 {
	width := f.Hi - f.Lo
	out := make([][2]float64, n)
	for i := range out {
		out[i] = [2]float64{
			f.Lo + float64(i)/float64(n)*width,
			f.Lo + float64(i+1)/float64(n)*width,
		}
	}
	return out
}
