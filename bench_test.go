// Benchmarks of the paper's experiments at reduced scale, the declarative
// layer and the engine, plus microbenchmarks of the framework's hot paths.
// Every BenchmarkFigure* and BenchmarkAblation* target runs cells of the
// matching cmd/exptables sweep (smaller grids) as scenario campaigns, one
// repetition per b.N, and reports the mean final quality and run length —
// and, for time-to-quality cells, the share of runs that reached the
// target — as custom metrics, so `go test -bench` output shows the
// reproduced trends. For full-size tables and figures use cmd/exptables.
package gossipopt_test

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"gossipopt"
	"gossipopt/internal/exp"
	"gossipopt/internal/funcs"
	"gossipopt/internal/overlay"
	"gossipopt/internal/pso"
	"gossipopt/internal/rng"
	"gossipopt/internal/scenario"
	"gossipopt/internal/sim"
)

// unbounded is a stop.cycles and metrics_every value no paper cell
// reaches: its budget or quality target ends the run, sampled once.
const unbounded = 1 << 53

// paperCell is one experiment cell as a scenario: n nodes of k particles
// gossiping every r local evaluations (r < 0: never) on f, stopped by stop.
func paperCell(f string, n, k, r int, stop scenario.Stop) scenario.Spec {
	stop.Cycles = unbounded
	return scenario.Spec{
		Name:         fmt.Sprintf("%s/n=%d/k=%d/r=%d", f, n, k, r),
		Nodes:        n,
		Stack:        scenario.Stack{Function: f, Particles: k, GossipEvery: r},
		MetricsEvery: unbounded,
		Stop:         stop,
	}
}

// budget stops a cell after e network-wide evaluations.
func budget(e int64) scenario.Stop { return scenario.Stop{MaxEvals: e} }

// benchCell runs b.N repetitions of one cell as a campaign and reports the
// mean quality and cycles (plus the reached share for a threshold cell).
func benchCell(b *testing.B, s scenario.Spec) {
	b.Helper()
	sums, err := scenario.Run(s, scenario.Options{Reps: b.N, BaseSeed: 1}, exp.DiscardSink{})
	if err != nil {
		b.Fatal(err)
	}
	var qSum, tSum float64
	reached := 0
	for _, sum := range sums {
		qSum += sum.Quality
		tSum += float64(sum.Cycles)
		if sum.Reached {
			reached++
		}
	}
	b.ReportMetric(qSum/float64(b.N), "quality")
	b.ReportMetric(tSum/float64(b.N), "cycles")
	if s.Stop.Quality != nil {
		b.ReportMetric(float64(reached)/float64(b.N), "reached")
	}
}

// --- Experiment 1 (Table 1, Figure 1): quality vs swarm size ---

func BenchmarkFigure1(b *testing.B) {
	for _, f := range funcs.PaperSuite {
		for _, n := range []int{1, 10, 100} {
			for _, k := range []int{1, 8, 32} {
				s := paperCell(f.Name, n, k, k, budget(int64(n)*1000))
				b.Run(fmt.Sprintf("%s/n=%d/k=%d", f.Name, n, k), func(b *testing.B) { benchCell(b, s) })
			}
		}
	}
}

// --- Experiment 2 (Table 2, Figure 2): quality vs network size ---

func BenchmarkFigure2(b *testing.B) {
	for _, f := range funcs.PaperSuite {
		for _, n := range []int{1, 16, 256} {
			for _, k := range []int{1, 16} {
				s := paperCell(f.Name, n, k, k, budget(1<<15))
				b.Run(fmt.Sprintf("%s/n=%d/k=%d", f.Name, n, k), func(b *testing.B) { benchCell(b, s) })
			}
		}
	}
}

// --- Experiment 3 (Table 3, Figure 3): quality vs gossip cycle length ---

func BenchmarkFigure3(b *testing.B) {
	for _, f := range funcs.PaperSuite {
		for _, r := range []int{2, 16, 64} {
			s := paperCell(f.Name, 100, 16, r, budget(100*1000))
			b.Run(fmt.Sprintf("%s/r=%d", f.Name, r), func(b *testing.B) { benchCell(b, s) })
		}
	}
}

// --- Experiment 4 (Table 4, Figure 4): time to quality threshold ---

func BenchmarkFigure4(b *testing.B) {
	// Griewank is censored in the paper too; keep the cap small so the
	// benchmark terminates quickly when the threshold is unreachable.
	threshold := 1e-10
	for _, f := range funcs.PaperSuite {
		for _, n := range []int{1, 8, 64} {
			s := paperCell(f.Name, n, 8, 8, scenario.Stop{Quality: &threshold, MaxEvals: 1 << 17})
			b.Run(fmt.Sprintf("%s/n=%d", f.Name, n), func(b *testing.B) { benchCell(b, s) })
		}
	}
}

// --- Ablations ---

func BenchmarkAblationNoGossip(b *testing.B) {
	for _, r := range []int{16, -1} {
		name := "gossip"
		if r < 0 {
			name = "isolated"
		}
		s := paperCell("Rastrigin", 50, 16, r, budget(50*1000))
		b.Run(name, func(b *testing.B) { benchCell(b, s) })
	}
}

func BenchmarkAblationTopology(b *testing.B) {
	for _, topo := range []string{"newscast", "random", "ring", "star"} {
		s := paperCell("Sphere", 64, 16, 16, budget(64*1000))
		s.Stack.Topology = topo
		b.Run(topo, func(b *testing.B) { benchCell(b, s) })
	}
}

func BenchmarkAblationChurn(b *testing.B) {
	for _, frac := range []float64{0, 0.5} {
		s := paperCell("Sphere", 64, 16, 16, budget(64*1000))
		if frac > 0 {
			s.Timeline = []scenario.Event{{At: 250, Action: "crash", Fraction: frac}}
		}
		b.Run(fmt.Sprintf("crash=%.0f%%", frac*100), func(b *testing.B) { benchCell(b, s) })
	}
}

func BenchmarkAblationMixedSolvers(b *testing.B) {
	for _, solvers := range [][]string{{"pso"}, {"de"}, {"es"}, {"pso", "de", "es"}} {
		s := paperCell("Rastrigin", 32, 16, 16, budget(32*1000))
		s.Stack.Solvers = solvers
		name := "solver=mixed"
		if len(solvers) == 1 {
			name = "solver=" + solvers[0]
		}
		b.Run(name, func(b *testing.B) { benchCell(b, s) })
	}
}

func BenchmarkAblationMessageLoss(b *testing.B) {
	for _, p := range []float64{0, 0.5, 0.9} {
		s := paperCell("Sphere", 32, 16, 16, budget(32*1000))
		s.Stack.DropProb = p
		b.Run(fmt.Sprintf("loss=%.0f%%", p*100), func(b *testing.B) { benchCell(b, s) })
	}
}

// --- Microbenchmarks of the framework's hot paths ---

func BenchmarkNetworkCycle(b *testing.B) {
	for _, n := range []int{16, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			net := gossipopt.New(gossipopt.Config{
				Nodes: n, Particles: 16, GossipEvery: 16,
				Function: gossipopt.Sphere, Seed: 1,
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Step()
			}
			evalsPerOp := float64(net.TotalEvals()) / float64(b.N)
			b.ReportMetric(evalsPerOp, "evals/op")
		})
	}
}

// BenchmarkEngineWorkers measures cycle throughput of the two-phase engine
// at production-ish scale (n = 10k nodes) across worker counts. Results are
// bit-identical for every worker count (see core.TestWorkerCountInvariance);
// only wall-clock changes. Workers drives both phases: propose (solver
// evaluation dominates a cycle's cost) parallelizes embarrassingly, and
// apply is destination-sharded across the same persistent pool — no
// goroutine is spawned per cycle in the steady state, so on a machine with
// >= 8 cores, workers=8 should deliver well over 2x the node-cycles/s of
// workers=1 with no serial phase left as the floor.
func BenchmarkEngineWorkers(b *testing.B) {
	const n = 10000
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("n=%d/workers=%d", n, w), func(b *testing.B) {
			net := gossipopt.New(gossipopt.Config{
				Nodes: n, Particles: 8, GossipEvery: 8,
				Function: gossipopt.Rastrigin, Seed: 1, Workers: w,
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Step()
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "node-cycles/s")
		})
	}
}

// BenchmarkApplyShards isolates the apply phase's scaling at n = 10k: a
// Newscast-only stack, whose propose phase is a cheap view snapshot while
// apply does the expensive symmetric view merges (two per exchange plus a
// reply leg), run with propose workers pinned and only the apply-shard
// count varying. Traces are bit-identical for every value (see the
// invariance tests); node-cycles/s should rise with applyworkers — before
// the destination-sharded apply this curve was flat by design.
func BenchmarkApplyShards(b *testing.B) {
	const n = 10000
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("n=%d/applyworkers=%d", n, w), func(b *testing.B) {
			e := sim.NewEngine(1)
			e.SetWorkers(8)
			e.SetApplyWorkers(w)
			e.AddNodes(n)
			overlay.InitNewscast(e.LiveNodes(), e.RNG(), 0, 20)
			start := e.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.RunCycle()
			}
			b.StopTimer()
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "node-cycles/s")
			reportPhaseTimes(b, start, e.Stats())
		})
	}
}

// reportPhaseTimes attributes a benchmark's per-op wall time to the two
// cycle phases via the engine's instrumentation deltas, so the BENCH
// trajectory can tell a propose-bound stack from an apply-bound one.
func reportPhaseTimes(b *testing.B, start, end sim.EngineStats) {
	b.Helper()
	b.ReportMetric(float64(end.ProposeNanos-start.ProposeNanos)/float64(b.N), "propose-ns/op")
	b.ReportMetric(float64(end.ApplyNanos-start.ApplyNanos)/float64(b.N), "apply-ns/op")
}

// BenchmarkEngineMillion is the headline scale benchmark: the full
// Newscast + optimizer stack at n = 10^6 nodes (tiny per-node swarms, so
// the engine — arena walk, payload pooling, sharding — dominates rather
// than the objective function). One op is one full cycle; allocs/op is the
// whole-network allocation count per cycle, which the free lists and the
// dense arena keep bounded (and CI guards against regressing — see
// scripts/check_alloc_budget.sh). ENGINE_BENCH_NODES overrides n for
// reduced-scale smoke runs.
func BenchmarkEngineMillion(b *testing.B) {
	n := 1_000_000
	if s := os.Getenv("ENGINE_BENCH_NODES"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			n = v
		}
	}
	for _, w := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("n=%d/workers=%d", n, w), func(b *testing.B) {
			net := gossipopt.New(gossipopt.Config{
				Nodes: n, Particles: 2, Dim: 2, GossipEvery: 2,
				Function: gossipopt.Sphere, Seed: 1, Workers: w,
			})
			defer net.Engine().Close()
			// Warm one full GossipEvery period, not just one cycle: the
			// best-point exchange pools first fill on the first gossip
			// cycle (cycle 2 here), so a single-Step warmup would bill
			// that one-time fill to the measured steady state.
			for i := 0; i < 2; i++ {
				net.Step()
			}
			start := net.Engine().Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Step()
			}
			b.StopTimer()
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "node-cycles/s")
			reportPhaseTimes(b, start, net.Engine().Stats())
		})
	}
}

// BenchmarkScenarioRun measures the declarative layer end to end: one
// iteration runs a full built-in scenario campaign (spec compilation,
// scripted events, metric sampling into a discard sink) on the cycle and
// event engines. The scenario layer should add only negligible overhead on
// top of the raw engines.
func BenchmarkScenarioRun(b *testing.B) {
	for _, name := range []string{"netsplit-heal", "lossy-wan"} {
		spec, ok := scenario.Builtin(name)
		if !ok {
			b.Fatalf("builtin %q missing", name)
		}
		b.Run(name, func(b *testing.B) {
			var evals int64
			for i := 0; i < b.N; i++ {
				sums, err := scenario.Run(spec, scenario.Options{Workers: 4}, exp.DiscardSink{})
				if err != nil {
					b.Fatal(err)
				}
				evals += sums[0].Evals
			}
			b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
		})
	}
}

// BenchmarkCampaignParallel measures campaign-level parallelism: one
// iteration runs an 8-repetition campaign of a built-in scenario with the
// repetitions fanned out over a worker pool. Output is byte-identical for
// every repworkers value (the per-rep rows are buffered and flushed in
// repetition order), so wall-clock should scale with the workers while
// ns/op is the only thing that moves.
func BenchmarkCampaignParallel(b *testing.B) {
	spec, ok := scenario.Builtin("baseline")
	if !ok {
		b.Fatal("builtin baseline missing")
	}
	for _, repWorkers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("repworkers=%d", repWorkers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := scenario.Run(spec, scenario.Options{
					Reps:       8,
					RepWorkers: repWorkers,
				}, exp.DiscardSink{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweep measures the sweep layer end to end: one iteration
// expands a built-in sweep's 2x2 grid and runs every cell x repetition
// job on the pool (grid expansion, overridden-spec campaigns, per-cell
// aggregation). Output is byte-identical for every sweepworkers value, so
// only wall-clock moves with the pool size.
func BenchmarkSweep(b *testing.B) {
	sw, ok := scenario.BuiltinSweep("overlay-vs-churn")
	if !ok {
		b.Fatal("builtin sweep overlay-vs-churn missing")
	}
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("sweepworkers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := scenario.RunSweep(sw, scenario.Options{
					Reps:       2,
					RepWorkers: workers,
				}, exp.DiscardSink{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunEvalsBudgetCheck demonstrates the O(n^2) -> O(n) win on the
// budget-driven run loop: RunEvals checks TotalEvals every cycle, which
// used to scan all n solvers (O(n) per cycle, O(n^2) per unit of simulated
// work) and is now an engine-maintained counter (O(1) per cycle). With the
// counter, ns/node-cycle stays flat as n grows; under the old scan it grew
// linearly with n.
func BenchmarkRunEvalsBudgetCheck(b *testing.B) {
	for _, n := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			net := gossipopt.New(gossipopt.Config{
				Nodes: n, Particles: 8, GossipEvery: 8,
				Function: gossipopt.Sphere, Seed: 1,
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Budget = current + n: exactly one more cycle, ending with
				// the per-cycle TotalEvals budget check.
				net.RunEvals(net.TotalEvals() + int64(n))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/node-cycle")
		})
	}
}

func BenchmarkNewscastCycle(b *testing.B) {
	e := sim.NewEngine(1)
	e.AddNodes(256)
	overlay.InitNewscast(e.LiveNodes(), e.RNG(), 0, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunCycle()
	}
}

func BenchmarkPSOSwarmEval(b *testing.B) {
	s := pso.New(funcs.Griewank, 10, 16, pso.Config{}, rng.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.EvalOne()
	}
}

func BenchmarkFunctionSuite(b *testing.B) {
	x := make([]float64, 10)
	for i := range x {
		x[i] = 1.5
	}
	for _, f := range funcs.PaperSuite {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			xx := x[:f.Dim(0)]
			var sink float64
			for i := 0; i < b.N; i++ {
				sink = f.Eval(xx)
			}
			_ = sink
		})
	}
}
