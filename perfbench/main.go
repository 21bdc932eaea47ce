// Command perfbench is the repository benchmark: a single-process program
// that runs four workloads through the simulator's public entry points
// (core.NewNetwork / Network.Step / Quality, scenario.Run / RunSweep and
// sim.Engine.Stats), checks their outputs, and prints every metric by name
// and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run repeats the workload with timing wrappers around each layer and the
// metrics are the per-layer ones. See README.md for the workloads, the
// layer-to-metric map and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// options are one invocation's settings. Workers is the engine (or
// repetition) parallelism of the multi-worker workloads, nproc outside
// tests; small shrinks every workload to test size.
type options struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	Workers  int
	small    bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	var spansDir string
	fs.StringVar(&o.Workload, "workload", "", "workload to run ("+strings.Join(workloadNames(), ", ")+"), or all of them in turn")
	fs.Uint64Var(&o.Seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&o.Seconds, "seconds", 20, "measurement length the workload's fixed amount of work is sized to")
	fs.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	fs.StringVar(&spansDir, "spans-dir", ".bench_build", "traced runs: directory of the spans-<workload>.jsonl files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{o.Workload}
	if o.Workload == "all" {
		names = workloadNames()
	} else if _, ok := workloads[o.Workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s, all)\n", o.Workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.Seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	o.Trace = trace == 1
	o.Workers = runtime.NumCPU()

	mc := machineContext(o.Workers)
	if mc.SingleCPU {
		fmt.Fprintln(stderr, "perfbench: single-CPU host: parallel-efficiency and multi-worker timings are not meaningful")
	}
	mcJSON, _ := json.Marshal(mc)
	for _, name := range names {
		o.Workload = name
		fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%g trace=%d workers=%d\n",
			o.Workload, o.Seed, o.Seconds, trace, o.Workers)
		fmt.Fprintf(stdout, "machine %s\n", mcJSON)
		res, err := measure(workloads[name], o)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		if o.Trace {
			path := filepath.Join(spansDir, "spans-"+name+".jsonl")
			if err := res.spans.writeFile(path); err != nil {
				fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "# spans %d written to %s\n", res.spans.len(), path)
		}
		printResult(stdout, res)
	}
	return 0
}

// result is what one invocation reports.
type result struct {
	correct           bool
	attempted, failed int64
	// metrics are the reported metrics (end-to-end or per-layer) and info
	// the workload-specific outputs printed for reading, outside the JSON.
	metrics, info map[string]float64
	spans         *spanLog
}

// measure runs the workload once untraced; a traced invocation adds the
// traced pass (the per-layer numbers and the spectator check) and, for
// multi-worker workloads, the plain single-worker baseline.
func measure(w workload, o options) (result, error) {
	plain, err := w.run(o, modePlain)
	if err != nil {
		return result{}, err
	}
	res := result{
		attempted: plain.attempted,
		failed:    plain.failed,
		info:      plain.info,
	}
	if !o.Trace {
		res.metrics = plain.e2e
	} else {
		traced, err := w.run(o, modeTraced)
		if err != nil {
			return result{}, err
		}
		var base *pass
		if w.parallel && o.Workers > 1 {
			b, err := w.run(o, modeBaseline)
			if err != nil {
				return result{}, err
			}
			base = &b
		}
		res.attempted += traced.attempted
		res.failed += traced.failed
		res.metrics = layerMetrics(plain, traced, base, o)
		res.spans = traced.spans
		if !equalOutputs(plain.outputs, traced.outputs) {
			res.failed++
			fmt.Fprintf(os.Stderr, "perfbench: spectator check failed: traced outputs differ from untraced\n%s", diffOutputs(plain.outputs, traced.outputs))
		}
		res.attempted++ // the spectator comparison is one checked operation
		if base != nil {
			res.attempted += base.attempted + 1
			res.failed += base.failed
			if !equalOutputs(plain.digests, base.digests) {
				res.failed++
				fmt.Fprintf(os.Stderr, "perfbench: worker-invariance check failed: workers=%d and workers=1 final states differ\n", o.Workers)
			}
		}
	}
	// A metric that is not a finite number means a measurement broke.
	for k, v := range res.metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", k, v)
			res.metrics[k] = 0
			res.failed++
		}
	}
	res.correct = res.failed == 0
	res.info["failed_frac"] = float64(res.failed) / float64(res.attempted)
	return res, nil
}

// printResult prints each metric on its own line, the workload-specific
// outputs, then the JSON result as the last line.
func printResult(w io.Writer, res result) {
	defs := endToEnd
	if res.spans != nil {
		defs = perLayer
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{res.correct, res.attempted, res.failed, make(map[string]jm, len(defs))}
	for _, d := range defs {
		v := res.metrics[d.Name]
		fmt.Fprintf(w, "metric %-34s %-14.6g %s\n", d.Name, v, d.Unit)
		out.Metrics[d.Name] = jm{v, d.Unit}
	}
	names := make([]string, 0, len(res.info))
	for k := range res.info {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "output %-34s %-14.6g %s\n", k, res.info[k], infoUnits[k])
	}
	b, _ := json.Marshal(out)
	fmt.Fprintf(w, "%s\n", b)
}
