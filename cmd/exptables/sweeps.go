package main

import (
	"encoding/json"
	"fmt"
	"strconv"

	"gossipopt/internal/scenario"
)

// The paper's experiment sets as scenario sweeps. Every sweep orders its
// axes function, n, then k, r or the ablation's variant, last axis
// fastest, so cell indices (and with them the exp.SeedFor repetition
// seeds) follow the nested function/n/k loops the tables are laid out in.
// A budget-mode cell stops at stop.max_evals; a threshold-mode cell at
// stop.quality, with stop.max_evals as its cap. Runs are sampled once, at
// the end.

// params fixes the sizes one -scale value selects, plus the -funcs suite.
type params struct {
	quick bool
	funcs []string
	reps  int
	// budgetPerNode is e/n for experiments 1 and 3 and the ablations.
	budgetPerNode int64
	// totalBudget is experiment 2's network-wide e.
	totalBudget int64
	// threshold and maxEvals are experiment 4's quality target and cap.
	threshold float64
	maxEvals  int64
}

// paperParams returns the paper's exact sizes (50 repetitions per cell).
func paperParams(funcs []string) params {
	return params{funcs: funcs, reps: 50, budgetPerNode: 1000, totalBudget: 1 << 20, threshold: 1e-10, maxEvals: 1 << 20}
}

// quickParams keeps every sweep's shape at laptop scale: smaller networks,
// budgets and repetition counts.
func quickParams(funcs []string) params {
	return params{quick: true, funcs: funcs, reps: 5, budgetPerNode: 1000, totalBudget: 1 << 15, threshold: 1e-10, maxEvals: 1 << 17}
}

// pick returns the quick-scale or the paper-scale value.
func pick[T any](p params, quick, paper T) T {
	if p.quick {
		return quick
	}
	return paper
}

// unbounded is a stop.cycles and metrics_every value no run reaches: the
// evaluation budget or the quality target ends every run, and the one
// sample is the final one.
const unbounded = 1 << 53

// sweep starts a paper sweep: a function axis over the suite and a base
// spec with the given stop rule and any stack settings the cells share.
func sweep(id string, p params, stop scenario.Stop, stack scenario.Stack, nodes int) scenario.SweepSpec {
	stop.Cycles = unbounded
	fns := make([]scenario.AxisValue, len(p.funcs))
	for i, f := range p.funcs {
		fns[i] = value(f, f)
	}
	return scenario.SweepSpec{
		Name: id,
		Base: scenario.Spec{Nodes: nodes, Stack: stack, MetricsEvery: unbounded, Stop: stop},
		Axes: []scenario.Axis{{Name: "function", Path: "stack.function", Values: fns}},
	}
}

// budget is the stop rule of a fixed network-wide evaluation budget.
func budget(evals int64) scenario.Stop { return scenario.Stop{MaxEvals: evals} }

// value builds an axis value from any JSON-encodable Go value.
func value(label string, v any) scenario.AxisValue {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps, slices and numbers always encode
	}
	return scenario.AxisValue{Label: label, Value: raw}
}

// axis builds an axis whose values are the given list mapped through v.
func axis[T any](name, path string, xs []T, label func(T) string, v func(T) any) scenario.Axis {
	ax := scenario.Axis{Name: name, Path: path}
	for _, x := range xs {
		ax.Values = append(ax.Values, value(label(x), v(x)))
	}
	return ax
}

// nodesAxis sweeps the network size n; with perNode > 0 the cell's budget
// scales with it (e = perNode·n).
func nodesAxis(ns []int, perNode int64) scenario.Axis {
	return axis("n", "", ns, strconv.Itoa, func(n int) any {
		patch := map[string]any{"nodes": n}
		if perNode > 0 {
			patch["stop"] = map[string]any{"max_evals": int64(n) * perNode}
		}
		return patch
	})
}

// swarmAxis sweeps the swarm size k with the gossip cycle length r = k.
func swarmAxis(ks []int) scenario.Axis {
	return axis("k", "", ks, strconv.Itoa, func(k int) any {
		return map[string]any{"stack": map[string]any{"particles": k, "gossip_every": k}}
	})
}

// pow2s returns 2^lo … 2^hi.
func pow2s(lo, hi int) []int {
	var out []int
	for i := lo; i <= hi; i++ {
		out = append(out, 1<<i)
	}
	return out
}

// experiment1 is Table 1 / Figure 1: quality after e = 1000·n evaluations
// as the swarm size k (r = k) and network size n vary.
func experiment1(p params) scenario.SweepSpec {
	sw := sweep("1", p, scenario.Stop{}, scenario.Stack{}, 0)
	sw.Axes = append(sw.Axes,
		nodesAxis(pick(p, []int{1, 10, 100}, []int{1, 10, 100, 1000}), p.budgetPerNode),
		swarmAxis([]int{1, 4, 8, 16, 32}))
	return sw
}

// experiment2 is Table 2 / Figure 2: quality under a fixed total budget
// e = 2^20 as n = 2^i grows, for several swarm sizes. The paper's finding:
// quality depends on the total particle count n·k, not on its spread.
func experiment2(p params) scenario.SweepSpec {
	sw := sweep("2", p, budget(p.totalBudget), scenario.Stack{}, 0)
	sw.Axes = append(sw.Axes,
		nodesAxis(pick(p, pow2s(0, 8), pow2s(0, 16)), 0),
		swarmAxis([]int{1, 4, 8, 16}))
	return sw
}

// experiment3 is Table 3 / Figure 3: quality as the gossip cycle length r
// varies from 2 to 64 local evaluations, k = 16, e = 1000·n.
func experiment3(p params) scenario.SweepSpec {
	sw := sweep("3", p, scenario.Stop{}, scenario.Stack{Particles: 16}, 0)
	rs := pick(p, []int{2, 8, 16, 32, 64},
		[]int{2, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60, 64})
	sw.Axes = append(sw.Axes,
		nodesAxis(pick(p, []int{10, 100}, []int{10, 100, 1000}), p.budgetPerNode),
		axis("r", "stack.gossip_every", rs, strconv.Itoa, func(r int) any { return r }))
	return sw
}

// experiment4 is Table 4 / Figure 4: time (local evaluations per node) to
// reach quality 1e-10 as n = 2^i and k vary. Griewank is expected to be
// censored; the paper reports no value for it.
func experiment4(p params) scenario.SweepSpec {
	threshold := p.threshold
	sw := sweep("4", p, scenario.Stop{Quality: &threshold, MaxEvals: p.maxEvals}, scenario.Stack{}, 0)
	sw.Axes = append(sw.Axes,
		nodesAxis(pick(p, pow2s(0, 6), pow2s(0, 10)), 0),
		swarmAxis([]int{1, 4, 8, 16}))
	return sw
}

// ablationNoGossip pairs every experiment-1 cell with fully independent
// swarms (no coordination): the paper's "exploiting stochasticity" extreme.
func ablationNoGossip(p params) scenario.SweepSpec {
	sw := experiment1(p)
	sw.Name = "a1"
	sw.Axes = append(sw.Axes, scenario.Axis{Name: "coordination", Values: []scenario.AxisValue{
		value("gossip", map[string]any{}),
		value("nogossip", map[string]any{"stack": map[string]any{"gossip_every": -1}}),
	}})
	return sw
}

// ablation is a fixed network of n nodes, k = r = 16 and e = 1000·n,
// swept over one variant axis.
func ablation(id string, p params, n int, variant scenario.Axis) scenario.SweepSpec {
	sw := sweep(id, p, budget(int64(n)*p.budgetPerNode), scenario.Stack{}, n)
	sw.Axes = append(sw.Axes, variant)
	return sw
}

// ablationTopology sweeps the topology service: Newscast against a static
// random graph, a ring and a star.
func ablationTopology(p params) scenario.SweepSpec {
	return ablation("a2", p, pick(p, 64, 256), scenario.Axis{Name: "topo", Path: "stack.topology", Values: []scenario.AxisValue{
		value("newscast", "newscast"),
		value("random", "random"),
		value("ring", "ring"),
		value("star", "star"),
	}})
}

// ablationChurn crashes a fraction of the network at a quarter of the
// per-node budget (§3.3.4's robustness claim); the 0 cell has no crash.
func ablationChurn(p params) scenario.SweepSpec {
	at := p.budgetPerNode / 4
	return ablation("a3", p, pick(p, 64, 256),
		axis("crash", "timeline", []float64{0, 0.25, 0.5, 0.75}, fixed2, func(f float64) any {
			if f == 0 {
				return nil
			}
			return []scenario.Event{{At: float64(at), Action: "crash", Fraction: f}}
		}))
}

// ablationMixedSolvers compares homogeneous PSO, DE and ES nodes with a
// round-robin mix of all three: the paper's future-work "module
// diversification among peers".
func ablationMixedSolvers(p params) scenario.SweepSpec {
	return ablation("a4", p, pick(p, 32, 128), scenario.Axis{Name: "solver", Path: "stack.solvers", Values: []scenario.AxisValue{
		value("pso", []string{"pso"}),
		value("de", []string{"de"}),
		value("es", []string{"es"}),
		value("mixed", []string{"pso", "de", "es"}),
	}})
}

// ablationMessageLoss sweeps the probability of losing a coordination
// exchange.
func ablationMessageLoss(p params) scenario.SweepSpec {
	return ablation("a5", p, pick(p, 32, 128),
		axis("loss", "stack.drop_prob", []float64{0, 0.1, 0.25, 0.5, 0.9}, fixed2, func(f float64) any { return f }))
}

// fixed2 labels a fraction with two decimals ("0.25").
func fixed2(f float64) string { return fmt.Sprintf("%.2f", f) }
