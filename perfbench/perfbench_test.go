package main

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"testing"

	"gossipopt/internal/scenario"
	"gossipopt/internal/sim"
)

// smallOpts is a test-sized invocation of a workload.
func smallOpts(workload string, trace bool) options {
	return options{Workload: workload, Seed: 7, Seconds: 1, Trace: trace, Workers: 2, small: true}
}

// resultJSON is the benchmark's last output line.
type resultJSON struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runSmall measures a workload at test size and parses its printed result.
func runSmall(t *testing.T, o options) (result, resultJSON) {
	t.Helper()
	res, err := measure(workloads[o.Workload], o)
	if err != nil {
		t.Fatalf("%s: %v", o.Workload, err)
	}
	var buf bytes.Buffer
	printResult(&buf, res)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var rj resultJSON
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rj); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s", o.Workload, err, lines[len(lines)-1])
	}
	return res, rj
}

func TestEveryMetricEmittedWithUnit(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			_, rj := runSmall(t, smallOpts(name, trace))
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(rj.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(rj.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rj.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", name, trace, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", name, trace, d.Name, m.Value)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, d.Name, m.Value)
				}
			}
			if !rj.Correct || rj.Failed != 0 || rj.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, rj.Correct, rj.Attempted, rj.Failed)
			}
		}
	}
}

// deterministic keeps a pass's seed-determined results: its outputs and
// the workload-specific counts.
func deterministic(p pass) []string {
	out := append([]string(nil), p.outputs...)
	for _, k := range []string{"tta_cycles", "final_log10_quality", "exchanges", "adoptions", "operations"} {
		out = append(out, k+"="+formatBits(p.info[k]))
	}
	return out
}

func formatBits(v float64) string {
	b, _ := json.Marshal(math.Float64bits(v))
	return string(b)
}

func TestDeterministicCountsRepeat(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		o := smallOpts(name, false)
		a, err := w.run(o, modePlain)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.run(o, modePlain)
		if err != nil {
			t.Fatal(err)
		}
		if !equalOutputs(deterministic(a), deterministic(b)) {
			t.Errorf("%s: two runs with one seed differ:\n%s", name, diffOutputs(deterministic(a), deterministic(b)))
		}
		if a.failed != 0 || b.failed != 0 {
			t.Errorf("%s: failed checks %d, %d", name, a.failed, b.failed)
		}
	}
}

func TestDeterministicCountsAcrossWorkers(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		one := smallOpts(name, false)
		one.Workers = 1
		many := smallOpts(name, false)
		many.Workers = max(2, runtime.NumCPU())
		a, err := w.run(one, modePlain)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.run(many, modePlain)
		if err != nil {
			t.Fatal(err)
		}
		// Engine job counts are worker-invariant; only batch counts and
		// timings depend on the worker count.
		if !equalOutputs(deterministic(a), deterministic(b)) {
			t.Errorf("%s: workers=1 and workers=%d differ:\n%s", name, many.Workers, diffOutputs(deterministic(a), deterministic(b)))
		}
		if !equalOutputs(a.digests, b.digests) {
			t.Errorf("%s: final-state digests differ across worker counts", name)
		}
	}
}

func TestTracedOutputEqualsUntraced(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		o := smallOpts(name, true)
		plain, err := w.run(o, modePlain)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := w.run(o, modeTraced)
		if err != nil {
			t.Fatal(err)
		}
		if len(plain.outputs) == 0 || !equalOutputs(plain.outputs, traced.outputs) {
			t.Errorf("%s: traced outputs differ from untraced:\n%s", name, diffOutputs(plain.outputs, traced.outputs))
		}
		if traced.spans.len() == 0 {
			t.Errorf("%s: traced pass recorded no spans", name)
		}
		for _, s := range traced.spans.spans {
			if s.End < s.Start || s.Parent >= s.ID {
				t.Errorf("%s: malformed span %+v", name, s)
				break
			}
		}
	}
}

func TestTracedLayersSeeTheirWork(t *testing.T) {
	_, tta := runSmall(t, smallOpts("paper-tta", true))
	_, swarm := runSmall(t, smallOpts("static-swarm", true))
	_, camp := runSmall(t, smallOpts("scenario-campaign", true))
	if tta.Metrics["overlay.newscast_receive_calls"].Value == 0 || tta.Metrics["funcs.evals"].Value == 0 {
		t.Error("paper-tta: Newscast receives or objective evaluations not traced")
	}
	if v := swarm.Metrics["overlay.newscast_receive_calls"].Value; v != 0 {
		t.Errorf("static-swarm: %v Newscast receives on a static overlay", v)
	}
	if swarm.Metrics["sim.propose_parallel_eff"].Value <= 0 {
		t.Error("static-swarm: no parallel efficiency against the single-worker baseline")
	}
	if camp.Metrics["exp.rows"].Value == 0 || camp.Metrics["scenario.rep_s_p50"].Value <= 0 {
		t.Error("scenario-campaign: sink rows or repetition times not traced")
	}
}

func TestCampaignRowsIdenticalAcrossRepWorkers(t *testing.T) {
	sz := campaignSizeFor(options{small: true})
	sw, wan, err := campaignSpecs(sz)
	if err != nil {
		t.Fatal(err)
	}
	var csv []string
	for _, workers := range []int{1, max(2, runtime.NumCPU())} {
		p := newPass(modePlain)
		cr, err := runCampaignOnce(sw, wan, sz, 11, workers, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		csv = append(csv, cr.csv[0]+" "+cr.csv[1])
	}
	if csv[0] != csv[1] {
		t.Errorf("campaign CSV differs across RepWorkers: %s vs %s", csv[0], csv[1])
	}
}

func TestCountersConsistencyRejectsBadCounters(t *testing.T) {
	sz := campaignSizeFor(options{small: true})
	sw, wan, err := campaignSpecs(sz)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := runCampaignOnce(sw, wan, sz, 3, 1, newPass(modePlain), 0)
	if err != nil {
		t.Fatal(err)
	}
	s := cr.summaries[0]
	if !countersConsistent(s, false, sw.Base.Nodes, 1) {
		t.Fatalf("real repetition flagged inconsistent: %+v", s.Stats)
	}
	s.Stats = sim.EngineStats{Cycles: s.Cycles, Delivered: 10, Dropped: 1, ApplyJobs: 12}
	if countersConsistent(s, false, sw.Base.Nodes, 1) {
		t.Error("more handled jobs than delivered plus dropped legs passed the check")
	}

	ev := cr.summaries[len(cr.summaries)-1]
	if !countersConsistent(ev, true, wan.Nodes, 1) {
		t.Fatalf("real event repetition flagged inconsistent: %+v (time %g)", ev.Stats, ev.Time)
	}
	for name, bad := range map[string]func(*scenario.RepSummary){
		"fewer deliveries than evaluation timers": func(r *scenario.RepSummary) { r.Stats.Delivered = r.Evals },
		"nothing dropped on a lossy link":         func(r *scenario.RepSummary) { r.Stats.Dropped = 0 },
		"evaluations missing":                     func(r *scenario.RepSummary) { r.Evals /= 2 },
		"evaluations beyond the tick rate":        func(r *scenario.RepSummary) { r.Evals *= 2 },
	} {
		r := ev
		bad(&r)
		if countersConsistent(r, true, wan.Nodes, 1) {
			t.Errorf("event check passed with %s", name)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--workload", "paper-tta", "--seconds", "0"},
		{"--workload", "paper-tta", "--trace", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
		if strings.Contains(stdout.String(), `"correct"`) {
			t.Errorf("%v: printed a result", args)
		}
	}
}
