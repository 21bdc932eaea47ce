package exp

import (
	"strings"
	"testing"

	"gossipopt/internal/core"
	"gossipopt/internal/funcs"
)

func traceNet(seed uint64) *core.Network {
	return core.NewNetwork(core.Config{
		Nodes: 8, Particles: 8, GossipEvery: 8,
		Function: funcs.Sphere, Seed: seed,
	})
}

func TestTraceRunSamples(t *testing.T) {
	tr := TraceRun(traceNet(1), 8000, 800)
	if tr.Len() < 10 {
		t.Fatalf("trace has %d samples", tr.Len())
	}
	if tr.Evals[tr.Len()-1] < 8000 {
		t.Fatalf("final sample at %d evals", tr.Evals[tr.Len()-1])
	}
}

func TestTraceMonotone(t *testing.T) {
	tr := TraceRun(traceNet(2), 16000, 400)
	if !tr.IsMonotone() {
		t.Fatalf("global-best trace not monotone: %v", tr.Quality)
	}
}

func TestTraceEvalsToReach(t *testing.T) {
	tr := TraceRun(traceNet(3), 40000, 500)
	final := tr.Final()
	ev, ok := tr.EvalsToReach(final * 2)
	if !ok {
		t.Fatal("threshold above final never reached")
	}
	if ev <= 0 || ev > 40000+8 {
		t.Fatalf("EvalsToReach = %d", ev)
	}
	if _, ok := tr.EvalsToReach(-1); ok {
		t.Fatal("impossible threshold reported reached")
	}
}

func TestTraceDefaultSampling(t *testing.T) {
	tr := TraceRun(traceNet(4), 1000, 0) // defaults to budget/100
	if tr.Len() < 50 {
		t.Fatalf("default sampling too sparse: %d", tr.Len())
	}
}

func TestTraceFinalPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	(&Trace{}).Final()
}

func TestConvergenceChart(t *testing.T) {
	a := TraceRun(traceNet(5), 4000, 400)
	b := TraceRun(traceNet(6), 4000, 400)
	ch := ConvergenceChart("conv", map[string]*Trace{"a": a, "b": b})
	if len(ch.Series) != 2 {
		t.Fatalf("series = %d", len(ch.Series))
	}
	out := ch.ASCII(60, 12)
	if !strings.Contains(out, "conv") {
		t.Fatal("title missing")
	}
}
