package exp

import (
	"sort"

	"gossipopt/internal/core"
	"gossipopt/internal/plot"
)

// Trace records a network's convergence curve: global solution quality as
// a function of total evaluations. Traces feed convergence figures (an
// extension beyond the paper's end-of-run tables) and regression tests
// that assert monotone improvement.
type Trace struct {
	Evals   []int64
	Quality []float64
}

// Record appends one sample.
func (t *Trace) Record(evals int64, quality float64) {
	t.Evals = append(t.Evals, evals)
	t.Quality = append(t.Quality, quality)
}

// Len returns the number of samples.
func (t *Trace) Len() int { return len(t.Evals) }

// Final returns the last quality sample (or +Inf semantics via NaN-free 0
// guard: it panics on an empty trace, which is a harness bug).
func (t *Trace) Final() float64 {
	if len(t.Quality) == 0 {
		panic("exp: Final on empty trace")
	}
	return t.Quality[len(t.Quality)-1]
}

// EvalsToReach returns the first evaluation count at which quality reached
// the threshold, and ok = false if it never did.
func (t *Trace) EvalsToReach(threshold float64) (int64, bool) {
	for i, q := range t.Quality {
		if q <= threshold {
			return t.Evals[i], true
		}
	}
	return 0, false
}

// IsMonotone reports whether quality never increases along the trace
// (global best is monotone by construction; violation indicates a bug).
func (t *Trace) IsMonotone() bool {
	for i := 1; i < len(t.Quality); i++ {
		if t.Quality[i] > t.Quality[i-1] {
			return false
		}
	}
	return true
}

// TraceRun runs the network to the evaluation budget, sampling quality
// every sampleEvery evaluations (in addition to the final state).
func TraceRun(net *core.Network, budget int64, sampleEvery int64) *Trace {
	tr := &Trace{}
	if sampleEvery <= 0 {
		sampleEvery = budget / 100
		if sampleEvery <= 0 {
			sampleEvery = 1
		}
	}
	next := sampleEvery
	for net.TotalEvals() < budget {
		if net.Engine().LiveCount() == 0 {
			break
		}
		net.Step()
		if ev := net.TotalEvals(); ev >= next {
			tr.Record(ev, net.Quality())
			next = ev + sampleEvery
		}
	}
	tr.Record(net.TotalEvals(), net.Quality())
	return tr
}

// ConvergenceChart renders one or more labelled traces as a log-quality
// chart over evaluations. Series appear in sorted label order so marker
// assignment is deterministic.
func ConvergenceChart(title string, traces map[string]*Trace) *plot.Chart {
	ch := &plot.Chart{Title: title, XLabel: "evaluations", YLabel: "quality", LogY: true}
	labels := make([]string, 0, len(traces))
	for label := range traces {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		tr := traces[label]
		xs := make([]float64, tr.Len())
		for i, e := range tr.Evals {
			xs[i] = float64(e)
		}
		ch.Add(label, xs, append([]float64(nil), tr.Quality...))
	}
	return ch
}
