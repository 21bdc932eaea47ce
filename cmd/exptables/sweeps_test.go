package main

import (
	"bytes"
	"strings"
	"testing"

	"gossipopt/internal/exp"
	"gossipopt/internal/funcs"
	"gossipopt/internal/scenario"
)

func paperSuite() []string {
	names := make([]string, len(funcs.PaperSuite))
	for i, f := range funcs.PaperSuite {
		names[i] = f.Name
	}
	return names
}

func cellsOf(t *testing.T, sw scenario.SweepSpec) []scenario.SweepCell {
	t.Helper()
	cells, err := sw.Cells()
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

// runRows runs a sweep on two repetition workers and summarizes its cells.
func runRows(t *testing.T, sw scenario.SweepSpec, reps int, tag func(scenario.SweepCell) string) []row {
	t.Helper()
	sw.Base.Seed = 3
	results, err := scenario.RunSweep(sw, scenario.Options{Reps: reps, RepWorkers: 2}, exp.DiscardSink{})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]row, len(results))
	for i, res := range results {
		rows[i] = rowOf(res, tag)
	}
	return rows
}

// tinyTable1 is experiment 1 (Table 1) over the given functions, network sizes
// and swarm sizes with a per-node budget of perNode evaluations.
func tinyTable1(fns []string, ns, ks []int, perNode int64) scenario.SweepSpec {
	p := quickParams(fns)
	p.budgetPerNode = perNode
	sw := experiment1(p)
	sw.Axes[1] = nodesAxis(ns, perNode)
	sw.Axes[2] = swarmAxis(ks)
	return sw
}

func TestExperimentCellCounts(t *testing.T) {
	p := paperParams(paperSuite())
	for _, c := range []struct {
		sw   scenario.SweepSpec
		want int
	}{
		{experiment1(p), 6 * 4 * 5},
		{experiment2(p), 6 * 17 * 4},
		{experiment3(p), 6 * 3 * 17},
		{experiment4(p), 6 * 11 * 4},
	} {
		if got := len(cellsOf(t, c.sw)); got != c.want {
			t.Errorf("experiment %s: %d cells, want %d", c.sw.Name, got, c.want)
		}
	}
}

func TestExperimentParamsMatchPaper(t *testing.T) {
	p := paperParams(paperSuite())
	if p.reps != 50 {
		t.Fatalf("paper reps = %d, want 50", p.reps)
	}
	for _, sw := range []scenario.SweepSpec{experiment1(p), experiment2(p), experiment3(p), experiment4(p)} {
		for _, c := range cellsOf(t, sw) {
			s := c.Spec
			// The budget (or the threshold) must end every run: one
			// evaluation per node per cycle spends it well before the
			// cycle bound, and no sample but the final one is taken.
			if s.Stop.Cycles < s.Stop.MaxEvals || int64(s.MetricsEvery) < s.Stop.MaxEvals {
				t.Fatalf("%s: stop.cycles %d or metrics_every %v binds before max_evals %d",
					c.Name, s.Stop.Cycles, s.MetricsEvery, s.Stop.MaxEvals)
			}
			switch sw.Name {
			case "1", "3":
				if s.Stop.MaxEvals != int64(s.Nodes)*1000 {
					t.Fatalf("%s: budget %d != 1000n", c.Name, s.Stop.MaxEvals)
				}
			case "2":
				if s.Stop.MaxEvals != 1<<20 {
					t.Fatalf("%s: budget %d != 2^20", c.Name, s.Stop.MaxEvals)
				}
			case "4":
				if s.Stop.Quality == nil || *s.Stop.Quality != 1e-10 || s.Stop.MaxEvals != 1<<20 {
					t.Fatalf("%s: threshold %v cap %d, want 1e-10 and 2^20", c.Name, s.Stop.Quality, s.Stop.MaxEvals)
				}
			}
			if sw.Name == "3" {
				if s.Stack.Particles != 16 {
					t.Fatalf("%s: k = %d, want 16", c.Name, s.Stack.Particles)
				}
			} else if s.Stack.GossipEvery != s.Stack.Particles {
				t.Fatalf("%s: r = %d != k = %d", c.Name, s.Stack.GossipEvery, s.Stack.Particles)
			}
			if sw.Name != "4" && s.Stop.Quality != nil {
				t.Fatalf("%s: budget cell has a quality stop", c.Name)
			}
		}
	}
}

func TestQuickSpecSmallerThanPaper(t *testing.T) {
	quick := len(cellsOf(t, experiment2(quickParams(paperSuite()))))
	paper := len(cellsOf(t, experiment2(paperParams(paperSuite()))))
	if quick >= paper {
		t.Fatalf("quick experiment 2 has %d cells, paper %d", quick, paper)
	}
	if quickParams(nil).reps >= paperParams(nil).reps {
		t.Fatal("quick scale runs no fewer repetitions than the paper")
	}
}

func TestAblationCells(t *testing.T) {
	p := quickParams([]string{"Sphere", "F2"})

	ng := cellsOf(t, ablationNoGossip(p))
	if len(ng) != 2*len(cellsOf(t, experiment1(p))) {
		t.Fatalf("a1 has %d cells, want two per experiment-1 cell", len(ng))
	}
	for i := 0; i < len(ng); i += 2 {
		on, off := ng[i].Spec, ng[i+1].Spec
		if on.Stack.GossipEvery != on.Stack.Particles || off.Stack.GossipEvery >= 0 {
			t.Fatalf("a1 pair %d: r = %d and %d, want k then disabled", i/2, on.Stack.GossipEvery, off.Stack.GossipEvery)
		}
		if coordinationTag(ng[i]) != "gossip" || coordinationTag(ng[i+1]) != "nogossip" {
			t.Fatalf("a1 pair %d mislabeled", i/2)
		}
	}

	topos := map[string]bool{}
	for _, c := range cellsOf(t, ablationTopology(p)) {
		topos[c.Spec.Stack.Topology] = true
	}
	if len(topos) != 4 {
		t.Fatalf("topology ablation covers %d topologies", len(topos))
	}

	crashes := 0
	for _, c := range cellsOf(t, ablationChurn(p)) {
		switch len(c.Spec.Timeline) {
		case 0:
			if variantTag(c) != "crash=0.00" {
				t.Fatalf("%s: crash cell without an event", c.Name)
			}
		case 1:
			ev := c.Spec.Timeline[0]
			if ev.Action != "crash" || ev.At != 250 || ev.Fraction <= 0 {
				t.Fatalf("%s: event %+v, want a crash at cycle 250", c.Name, ev)
			}
			crashes++
		default:
			t.Fatalf("%s: %d events", c.Name, len(c.Spec.Timeline))
		}
	}
	if crashes == 0 {
		t.Fatal("no churn cells")
	}

	mixed := cellsOf(t, ablationMixedSolvers(p))
	if got := mixed[3].Spec.Stack.Solvers; len(got) != 3 || variantTag(mixed[3]) != "solver=mixed" {
		t.Fatalf("mixed cell runs %v as %q", got, variantTag(mixed[3]))
	}

	loss := cellsOf(t, ablationMessageLoss(p))
	if loss[0].Spec.Stack.DropProb != 0 || loss[1].Spec.Stack.DropProb == 0 || variantTag(loss[1]) != "loss=0.10" {
		t.Fatal("loss sweep shape wrong")
	}
}

// TestStopRuleBudget runs one budget-mode cell: it stops at its
// evaluation budget.
func TestStopRuleBudget(t *testing.T) {
	results, err := scenario.RunSweep(tinyTable1([]string{"Sphere"}, []int{4}, []int{8}, 500),
		scenario.Options{}, exp.DiscardSink{})
	if err != nil {
		t.Fatal(err)
	}
	if sum := results[0].Sums[0]; sum.Evals < 2000 || sum.Evals > 2000+4 || sum.Cycles != 500 {
		t.Fatalf("budget cell ran %d cycles and %d evals, want 500 and 2000", sum.Cycles, sum.Evals)
	}
}

// TestStopRuleThreshold runs one threshold-mode cell: it stops as soon
// as it reaches the target, before the evaluation cap.
func TestStopRuleThreshold(t *testing.T) {
	p := quickParams([]string{"Sphere"})
	p.threshold = 1e-6
	sw := experiment4(p)
	sw.Axes[1] = nodesAxis([]int{4}, 0)
	sw.Axes[2] = swarmAxis([]int{16})
	results, err := scenario.RunSweep(sw, scenario.Options{BaseSeed: 2}, exp.DiscardSink{})
	if err != nil {
		t.Fatal(err)
	}
	if sum := results[0].Sums[0]; !sum.Reached || sum.Quality > 1e-6 || sum.Evals >= p.maxEvals {
		t.Fatalf("threshold cell: %+v", sum)
	}
}

// TestSweepAggregation checks the table metric on known repetitions:
// quality over all of them in budget mode, time over the reaching ones
// in threshold mode.
func TestSweepAggregation(t *testing.T) {
	spec := scenario.Spec{Nodes: 4, Stack: scenario.Stack{Function: "Sphere", Particles: 8, GossipEvery: 8}}
	cell := scenario.SweepCell{Spec: spec}
	r := rowOf(scenario.SweepCellResult{Cell: cell, Sums: []scenario.RepSummary{
		{Quality: 2}, {Quality: 4}, {Quality: 6},
	}}, nil)
	if r.m.N != 3 || r.m.Avg != 4 || r.m.Min != 2 || r.m.Max != 6 || r.m.Var != 4 {
		t.Fatalf("budget summary %+v, want n=3 avg=4 min=2 max=6 var=4", r.m)
	}
	if r.label != "Sphere n=4 k=8 r=8" {
		t.Fatalf("label %q", r.label)
	}

	th := 1e-10
	cell.Spec.Stop.Quality = &th
	r = rowOf(scenario.SweepCellResult{Cell: cell, Sums: []scenario.RepSummary{
		{Cycles: 10, Reached: true}, {Cycles: 99}, {Cycles: 30, Reached: true},
	}}, nil)
	if !r.threshold || r.reached != 2 || r.reps != 3 || r.m.N != 2 || r.m.Avg != 20 {
		t.Fatalf("threshold row %+v, want 2 of 3 reached, mean time 20", r)
	}
	var b bytes.Buffer
	writeTable(&b, "agg", []row{r})
	if !strings.Contains(b.String(), "censored 1/3") {
		t.Fatalf("censored repetitions not noted:\n%s", b.String())
	}
}

func TestReportTableAndBestRows(t *testing.T) {
	rows := runRows(t, tinyTable1([]string{"Sphere", "F2"}, []int{1, 4}, []int{4}, 300), 2, nil)
	var b bytes.Buffer
	writeTable(&b, "test", rows)
	table := b.String()
	if !strings.Contains(table, "Sphere n=4 k=4 r=4") || !strings.Contains(table, "F2 n=1 k=4 r=4") {
		t.Fatalf("table missing functions:\n%s", table)
	}
	if strings.Count(table, "\n*") != 2 {
		t.Fatalf("want one best row marked per function:\n%s", table)
	}
	best := table[strings.Index(table, "Per-function best rows"):]
	if strings.Count(best, "quality  avg=") != 2 {
		t.Fatalf("want one best row per function:\n%s", best)
	}
}

func TestReportFigures(t *testing.T) {
	rows := runRows(t, tinyTable1([]string{"Sphere"}, []int{1, 4}, []int{4, 8}, 100), 2, nil)
	charts := experiments[0].fig.charts("fig", rows)
	if len(charts) != 1 {
		t.Fatalf("charts = %d", len(charts))
	}
	ch := charts[0]
	if len(ch.Series) != 2 {
		t.Fatalf("series = %d, want one per network size", len(ch.Series))
	}
	if out := ch.ASCII(60, 12); !strings.Contains(out, "size=1") {
		t.Fatalf("legend missing:\n%s", out)
	}
	if tsv := ch.TSV(); !strings.Contains(tsv, "size=4") {
		t.Fatalf("tsv missing series:\n%s", tsv)
	}
}

func TestFigure4SkipsCensored(t *testing.T) {
	// Griewank at a tiny evaluation cap never reaches 1e-10; its series
	// must be dropped rather than plotted at 0.
	p := quickParams([]string{"Griewank"})
	p.maxEvals = 500
	sw := experiment4(p)
	sw.Axes[1] = nodesAxis([]int{2}, 0)
	sw.Axes[2] = swarmAxis([]int{8})
	rows := runRows(t, sw, 2, nil)
	charts := experiments[3].fig.charts("cens", rows)
	if len(charts) != 1 {
		t.Fatalf("charts = %d", len(charts))
	}
	if len(charts[0].Series) != 0 {
		t.Fatalf("censored series plotted: %+v", charts[0].Series)
	}
	var b bytes.Buffer
	writeTable(&b, "cens", rows)
	if !strings.Contains(b.String(), "never reached") {
		t.Fatalf("table does not mark censored rows:\n%s", b.String())
	}
}

// TestSweepDeterministicAcrossWorkerCounts: stdout is byte-identical for
// any repetition-worker and engine-worker count.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	runWith := func(workers, engineWorkers string) string {
		var out, errOut bytes.Buffer
		args := []string{"-exp", "a5", "-funcs", "Sphere", "-reps", "2", "-workers", workers, "-engineworkers", engineWorkers}
		if err := run(args, &out, &errOut); err != nil {
			t.Fatalf("%v\n%s", err, errOut.String())
		}
		return out.String()
	}
	if a, b := runWith("1", "1"), runWith("3", "4"); a != b {
		t.Fatalf("output differs across worker counts:\n--- 1/1 ---\n%s--- 3/4 ---\n%s", a, b)
	}
}
