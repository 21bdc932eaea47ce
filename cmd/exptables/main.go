// Command exptables regenerates the paper's tables and figures (and this
// repository's ablations). Each experiment is a scenario sweep (see
// sweeps.go) run by scenario.RunSweep; the command prints its cells as a
// paper-style avg/min/max/Var table, renders ASCII versions of the
// figures, and optionally writes gnuplot-ready TSV series files.
//
// Examples:
//
//	exptables -exp 1 -scale quick            # Table 1 + Figure 1, laptop scale
//	exptables -exp all -scale quick -out out # everything, TSVs into ./out
//	exptables -exp 4 -scale paper -reps 50   # full paper-scale run (slow)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"gossipopt/internal/exp"
	"gossipopt/internal/funcs"
	"gossipopt/internal/plot"
	"gossipopt/internal/scenario"
	"gossipopt/internal/stats"
)

type experiment struct {
	id    string
	title string
	sweep func(params) scenario.SweepSpec
	// tag, for an ablation, names a cell's variant in its table row.
	tag func(scenario.SweepCell) string
	fig *figure
}

// figure selects a paper figure's x value and series from a cell's spec;
// the y value is the cell's table metric.
type figure struct {
	xLabel string
	x      func(scenario.Spec) int
	series func(scenario.Spec) string
	logX   bool
}

var experiments = []experiment{
	{"1", "Experiment 1: solution quality vs swarm size (Table 1, Figure 1)",
		experiment1, nil, &figure{"particles per node", particles, bySize, false}},
	{"2", "Experiment 2: solution quality vs network size (Table 2, Figure 2)",
		experiment2, nil, &figure{"network size", nodes, bySwarm, true}},
	{"3", "Experiment 3: solution quality vs gossip cycle length (Table 3, Figure 3)",
		experiment3, nil, &figure{"gossip cycle length", cycleLength, bySize, false}},
	{"4", "Experiment 4: total time to quality 1e-10 vs network size (Table 4, Figure 4)",
		experiment4, nil, &figure{"# of nodes", nodes, bySwarm, true}},
	{"a1", "Ablation: coordination vs independent swarms",
		ablationNoGossip, coordinationTag, nil},
	{"a2", "Ablation: topology service (newscast/random/ring/star)",
		ablationTopology, variantTag, nil},
	{"a3", "Ablation: churn robustness (catastrophic crash fractions)",
		ablationChurn, variantTag, nil},
	{"a4", "Ablation: solver diversification (pso/de/es/mixed)",
		ablationMixedSolvers, variantTag, nil},
	{"a5", "Ablation: coordination message loss",
		ablationMessageLoss, variantTag, nil},
}

func nodes(s scenario.Spec) int       { return s.Nodes }
func particles(s scenario.Spec) int   { return s.Stack.Particles }
func cycleLength(s scenario.Spec) int { return s.Stack.GossipEvery }
func bySize(s scenario.Spec) string   { return fmt.Sprintf("size=%d", s.Nodes) }
func bySwarm(s scenario.Spec) string  { return fmt.Sprintf("particles=%d", s.Stack.Particles) }

// variantTag is the ablation's variant axis label ("topo=ring").
func variantTag(c scenario.SweepCell) string { return c.Labels[len(c.Labels)-1] }

// coordinationTag marks a cell "gossip" or "nogossip".
func coordinationTag(c scenario.SweepCell) string {
	if c.Spec.Stack.GossipEvery < 0 {
		return "nogossip"
	}
	return "gossip"
}

// errBadFlags marks a parse failure the FlagSet has already reported to
// stderr, so main must not print it again.
var errBadFlags = errors.New("invalid command line")

func main() {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case err == nil:
	case errors.Is(err, flag.ErrHelp): // -h: usage printed, success
	case errors.Is(err, errBadFlags):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run executes the command: tables and figures go to out, wall-clock
// timings to errOut, so out is byte-identical for every worker count.
func run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("exptables", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		which   = fs.String("exp", "all", "experiment id: 1,2,3,4,a1..a5 or all (comma-separated)")
		scale   = fs.String("scale", "quick", "quick or paper")
		reps    = fs.Int("reps", 0, "override repetitions per cell")
		seed    = fs.Uint64("seed", 1, "base seed")
		outDir  = fs.String("out", "", "directory for TSV series files (empty = skip)")
		noAscii = fs.Bool("no-ascii", false, "suppress ASCII figures")
		funcsCS = fs.String("funcs", "", "comma-separated function subset (default: paper suite)")
		workers = fs.Int("workers", 0, "worker goroutines running repetitions (0 = NumCPU)")
		engineW = fs.Int("engineworkers", 1, "per-repetition engine workers for the propose phase (results are identical for any value)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errBadFlags
	}

	suite := funcs.PaperSuite
	if *funcsCS != "" {
		suite = nil
		for _, name := range strings.Split(*funcsCS, ",") {
			f, err := funcs.ByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			suite = append(suite, f)
		}
	}
	names := make([]string, len(suite))
	for i, f := range suite {
		names[i] = f.Name
	}
	p := quickParams(names)
	if *scale == "paper" {
		p = paperParams(names)
	}
	if *reps > 0 {
		p.reps = *reps
	}
	opts := scenario.Options{Reps: p.reps, Workers: *engineW, RepWorkers: *workers}
	if opts.RepWorkers <= 0 {
		opts.RepWorkers = runtime.NumCPU()
	}

	ids := map[string]bool{}
	if *which == "all" {
		for _, e := range experiments {
			ids[e.id] = true
		}
	} else {
		for _, id := range strings.Split(*which, ",") {
			ids[strings.TrimSpace(id)] = true
		}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}

	for _, e := range experiments {
		if !ids[e.id] {
			continue
		}
		sw := e.sweep(p)
		sw.Base.Seed = *seed
		start := time.Now()
		results, err := scenario.RunSweep(sw, opts, exp.DiscardSink{})
		if err != nil {
			return err
		}
		fmt.Fprintf(errOut, "# %s completed in %v\n", e.id, time.Since(start).Round(time.Millisecond))
		rows := make([]row, len(results))
		for i, res := range results {
			rows[i] = rowOf(res, e.tag)
		}
		fmt.Fprintf(out, "\n########## %s ##########\n", e.title)
		fmt.Fprintf(out, "# %d cells x %d reps (scale=%s, seed=%d)\n\n", len(rows), p.reps, *scale, *seed)
		writeTable(out, e.title, rows)

		if e.fig == nil {
			continue
		}
		for _, ch := range e.fig.charts(e.title, rows) {
			if !*noAscii {
				fmt.Fprintln(out)
				fmt.Fprintln(out, ch.ASCII(72, 18))
			}
			if *outDir != "" {
				path := filepath.Join(*outDir, sanitize(ch.Title)+".tsv")
				if err := os.WriteFile(path, []byte(ch.TSV()), 0o644); err != nil {
					return err
				}
				fmt.Fprintf(out, "# wrote %s\n", path)
			}
		}
	}
	return nil
}

// row is one sweep cell as the paper's tables print it.
type row struct {
	fn, label string
	spec      scenario.Spec
	// threshold marks a time-to-quality cell (experiment 4).
	threshold bool
	// m summarizes the final quality over the repetitions or, for a
	// threshold cell, the time (local evaluations per node) of the
	// repetitions that reached the target.
	m             stats.Summary
	reached, reps int
}

// rowOf summarizes one cell's repetitions.
func rowOf(res scenario.SweepCellResult, tag func(scenario.SweepCell) string) row {
	s := res.Cell.Spec
	r := s.Stack.GossipEvery
	if r < 0 {
		r = s.Stack.Particles // isolated swarms keep the label of their gossiping twin
	}
	rw := row{
		fn:        s.Stack.Function,
		label:     fmt.Sprintf("%s n=%d k=%d r=%d", s.Stack.Function, s.Nodes, s.Stack.Particles, r),
		spec:      s,
		threshold: s.Stop.Quality != nil,
		reps:      len(res.Sums),
	}
	if tag != nil {
		rw.label += " " + tag(res.Cell)
	}
	var samples []float64
	for _, sum := range res.Sums {
		switch {
		case !rw.threshold:
			samples = append(samples, sum.Quality)
		case sum.Reached:
			rw.reached++
			samples = append(samples, float64(sum.Cycles))
		}
	}
	rw.m = stats.Summarize(samples)
	return rw
}

// byFunction splits rows into per-function groups. Every sweep's first
// axis is the function, so each group is one contiguous run.
func byFunction(rows []row) [][]row {
	var groups [][]row
	for start := 0; start < len(rows); {
		end := start + 1
		for end < len(rows) && rows[end].fn == rows[start].fn {
			end++
		}
		groups = append(groups, rows[start:end])
		start = end
	}
	return groups
}

// best returns the index of the group's row with the lowest average
// metric (the first on ties), or -1 when no row has one.
func best(group []row) int {
	b := -1
	for i, r := range group {
		if r.m.N > 0 && (b < 0 || r.m.Avg < group[b].m.Avg) {
			b = i
		}
	}
	return b
}

// writeTable prints the paper-style table, grouped by function with each
// function's best row marked '*', then the per-function best rows alone —
// the paper's tables report exactly these.
func writeTable(w io.Writer, title string, rows []row) {
	fmt.Fprintf(w, "== %s ==\n", title)
	fmt.Fprintf(w, "%-44s %12s %12s %12s %12s %s\n", "configuration", "avg", "min", "max", "var", "notes")
	groups := byFunction(rows)
	for _, g := range groups {
		b := best(g)
		for i, r := range g {
			s, note := r.m, ""
			if r.threshold {
				if censored := r.reps - r.reached; censored > 0 {
					note = fmt.Sprintf("censored %d/%d", censored, r.reps)
				}
				if r.reached == 0 {
					s, note = stats.Summary{}, "never reached (–)"
				}
			}
			mark := " "
			if i == b {
				mark = "*"
			}
			fmt.Fprintf(w, "%s%-43s %12.5g %12.5g %12.5g %12.5g %s\n",
				mark, r.label, s.Avg, s.Min, s.Max, s.Var, note)
		}
	}

	fmt.Fprintln(w, "\nPer-function best rows (the paper's table format):")
	for _, g := range groups {
		b := best(g)
		if b < 0 {
			continue
		}
		r := g[b]
		unit := "quality"
		if r.threshold {
			unit = "time"
		}
		fmt.Fprintf(w, "  %-12s %-8s avg=%-12.5g min=%-12.5g max=%-12.5g var=%-12.5g (%s)\n",
			r.fn, unit, r.m.Avg, r.m.Min, r.m.Max, r.m.Var, r.label)
	}
}

// charts builds one chart per function: each series joins the averages of
// the cells sharing a series key, in cell order. Cells with no sample —
// threshold cells no repetition reached — are left out, as in the paper.
func (f *figure) charts(title string, rows []row) []*plot.Chart {
	var out []*plot.Chart
	for _, g := range byFunction(rows) {
		ch := &plot.Chart{
			Title:  fmt.Sprintf("%s — %s", title, g[0].fn),
			XLabel: f.xLabel,
			YLabel: "quality",
			LogX:   f.logX,
			LogY:   true,
		}
		if g[0].threshold {
			ch.YLabel = "time"
		}
		bySeries := map[string][]row{}
		var keys []string
		for _, r := range g {
			k := f.series(r.spec)
			if _, ok := bySeries[k]; !ok {
				keys = append(keys, k)
			}
			bySeries[k] = append(bySeries[k], r)
		}
		sort.Strings(keys)
		for _, k := range keys {
			var xs, ys []float64
			for _, r := range bySeries[k] {
				if r.m.N > 0 {
					xs = append(xs, float64(f.x(r.spec)))
					ys = append(ys, r.m.Avg)
				}
			}
			if len(xs) > 0 {
				ch.Add(k, xs, ys)
			}
		}
		out = append(out, ch)
	}
	return out
}

func sanitize(s string) string {
	s = strings.ToLower(s)
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ' || r == '-' || r == '_':
			b.WriteByte('_')
		}
	}
	return b.String()
}
