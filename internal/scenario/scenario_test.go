package scenario

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"gossipopt/internal/core"
	"gossipopt/internal/exp"
	"gossipopt/internal/overlay"
	"gossipopt/internal/sim"
)

// captureSink records every emitted Record for inspection.
type captureSink struct{ recs []exp.Record }

func (s *captureSink) Emit(r exp.Record) error { s.recs = append(s.recs, r); return nil }
func (s *captureSink) Flush() error            { return nil }

func TestBuiltinsNormalize(t *testing.T) {
	names := BuiltinNames()
	if len(names) != 14 {
		t.Fatalf("expected 14 built-ins, got %v", names)
	}
	for _, name := range names {
		s, ok := Builtin(name)
		if !ok {
			t.Fatalf("Builtin(%q) missing", name)
		}
		if _, err := s.normalized(); err != nil {
			t.Fatalf("built-in %q does not validate: %v", name, err)
		}
	}
	if _, ok := Builtin("no-such"); ok {
		t.Fatal("unknown builtin found")
	}
}

func TestAllBuiltinsRun(t *testing.T) {
	for _, name := range BuiltinNames() {
		spec, _ := Builtin(name)
		var sink captureSink
		sums, err := Run(spec, Options{Workers: 2}, &sink)
		if err != nil {
			t.Fatalf("built-in %q failed: %v", name, err)
		}
		if len(sums) != 1 {
			t.Fatalf("built-in %q: %d summaries, want 1", name, len(sums))
		}
		s := sums[0]
		if spec.Stack.Protocol == "" || spec.Stack.Protocol == ProtocolOpt {
			if s.Evals == 0 || math.IsInf(s.Quality, 0) {
				t.Fatalf("built-in %q produced no work: %+v", name, s)
			}
			continue
		}
		// Epidemic protocols perform no objective evaluations; work shows
		// up as exchanges flowing through the mailbox pipeline instead.
		last := sink.recs[len(sink.recs)-1]
		if last.Exchanges == 0 || last.Delivered == 0 {
			t.Fatalf("built-in %q produced no exchanges: %+v", name, last)
		}
		if math.IsInf(s.Quality, 0) || math.IsNaN(s.Quality) {
			t.Fatalf("built-in %q has no quality metric: %+v", name, s)
		}
	}
}

// TestWorkerInvariance is the subsystem's core guarantee: the same spec +
// seed yields byte-identical metric output at any worker count.
func TestWorkerInvariance(t *testing.T) {
	render := func(workers int) string {
		spec, _ := Builtin("netsplit-heal")
		var buf bytes.Buffer
		if _, err := Run(spec, Options{Reps: 2, Workers: workers}, exp.NewCSVSink(&buf)); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	one := render(1)
	eight := render(8)
	if one != eight {
		t.Fatalf("metric output differs between workers=1 and workers=8:\n--- 1 ---\n%s--- 8 ---\n%s", one, eight)
	}
	if strings.Count(one, "\n") < 3 {
		t.Fatalf("suspiciously little output:\n%s", one)
	}
}

// TestApplyWorkerGridInvariance is the sharded-apply acceptance
// criterion: for every cycle-engine built-in — each bundled protocol
// stack has one — the campaign bytes are identical across the full
// (propose workers × apply workers) ∈ {1,2,8}² grid. Run under -race in
// CI, which also keeps the destination-sharded apply phase honest at the
// high worker counts.
func TestApplyWorkerGridInvariance(t *testing.T) {
	grid := []int{1, 2, 8}
	for _, name := range BuiltinNames() {
		spec, _ := Builtin(name)
		if spec.Engine == EngineEvent {
			continue // single-threaded engine; nothing to vary
		}
		render := func(workers, applyWorkers int) string {
			var buf bytes.Buffer
			if _, err := Run(spec, Options{Workers: workers, ApplyWorkers: applyWorkers}, exp.NewCSVSink(&buf)); err != nil {
				t.Fatalf("%s workers=%d applyworkers=%d: %v", name, workers, applyWorkers, err)
			}
			return buf.String()
		}
		want := render(1, 1)
		for _, pw := range grid {
			for _, aw := range grid {
				if pw == 1 && aw == 1 {
					continue
				}
				if got := render(pw, aw); got != want {
					t.Fatalf("%s: output differs between 1x1 and %dx%d workers", name, pw, aw)
				}
			}
		}
	}
}

func TestRepSeedsDiffer(t *testing.T) {
	spec, _ := Builtin("baseline")
	sums, err := Run(spec, Options{Reps: 3}, exp.DiscardSink{})
	if err != nil {
		t.Fatal(err)
	}
	if sums[0].Seed == sums[1].Seed || sums[1].Seed == sums[2].Seed {
		t.Fatalf("repetition seeds collide: %+v", sums)
	}
	if sums[0].Quality == sums[1].Quality {
		t.Fatalf("distinct seeds, identical outcomes: %+v", sums)
	}
}

func TestCycleEventsApplied(t *testing.T) {
	spec := Spec{
		Name:  "events",
		Nodes: 10,
		Seed:  9,
		Timeline: []Event{
			{At: 2, Action: "crash", Count: 4},
			{At: 4, Action: "join", Count: 3},
			{At: 6, Action: "revive", Count: 2},
		},
		MetricsEvery: 1,
		Stop:         Stop{Cycles: 8},
	}
	var sink captureSink
	if _, err := Run(spec, Options{}, &sink); err != nil {
		t.Fatal(err)
	}
	liveAt := map[int64]int{}
	for _, r := range sink.recs {
		liveAt[r.Cycle] = r.Live
	}
	// Events fire before the cycle they name: the crash at cycle index 2
	// shows in the sample after that cycle completes (Cycle == 3).
	if liveAt[2] != 10 || liveAt[3] != 6 || liveAt[5] != 9 || liveAt[7] != 11 {
		t.Fatalf("live counts don't trace the script: %v", liveAt)
	}
}

func TestCyclePartitionDropsMessages(t *testing.T) {
	spec := Spec{
		Name:  "split",
		Nodes: 32,
		Seed:  11,
		Timeline: []Event{
			{At: 10, Action: "partition", Groups: 2},
			{At: 30, Action: "heal"},
		},
		MetricsEvery: 10,
		Stop:         Stop{Cycles: 40},
	}
	var sink captureSink
	if _, err := Run(spec, Options{}, &sink); err != nil {
		t.Fatal(err)
	}
	// Newscast crosses the cut constantly, so drops must accumulate
	// during the partition window and delivery must resume after it.
	var at10, at30, at40 exp.Record
	for _, r := range sink.recs {
		switch r.Cycle {
		case 10:
			at10 = r
		case 30:
			at30 = r
		case 40:
			at40 = r
		}
	}
	if at10.Dropped != 0 {
		t.Fatalf("drops before the partition: %+v", at10)
	}
	if at30.Dropped <= at10.Dropped {
		t.Fatalf("no drops during the partition: %+v", at30)
	}
	if at40.Delivered <= at30.Delivered {
		t.Fatalf("delivery did not resume after heal: %+v", at40)
	}
}

func TestEventEngineScenarioRuns(t *testing.T) {
	spec, _ := Builtin("lossy-wan")
	var sink captureSink
	sums, err := Run(spec, Options{}, &sink)
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.recs) == 0 {
		t.Fatal("no metric records emitted")
	}
	last := sink.recs[len(sink.recs)-1]
	if last.Dropped == 0 {
		t.Fatalf("lossy link dropped nothing: %+v", last)
	}
	if sums[0].Time != 300 {
		t.Fatalf("run did not reach the horizon: %+v", sums[0])
	}
}

func TestEventEngineDeterministic(t *testing.T) {
	render := func() string {
		spec, _ := Builtin("latency-spike")
		var buf bytes.Buffer
		if _, err := Run(spec, Options{}, exp.NewJSONLSink(&buf)); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if render() != render() {
		t.Fatal("event-engine scenario not byte-deterministic")
	}
}

func TestQualityStop(t *testing.T) {
	loose := 1e12 // any evaluated point on Sphere beats this
	spec := Spec{
		Name:         "stop",
		Nodes:        8,
		Seed:         5,
		MetricsEvery: 1,
		Stop:         Stop{Cycles: 100, Quality: &loose},
	}
	sums, err := Run(spec, Options{}, exp.DiscardSink{})
	if err != nil {
		t.Fatal(err)
	}
	if !sums[0].Reached || sums[0].Cycles != 1 {
		t.Fatalf("loose quality threshold did not stop the run: %+v", sums[0])
	}
}

func TestMaxEvalsStop(t *testing.T) {
	spec := Spec{
		Name:  "budget",
		Nodes: 10,
		Seed:  5,
		Stop:  Stop{Cycles: 100, MaxEvals: 30},
	}
	sums, err := Run(spec, Options{}, exp.DiscardSink{})
	if err != nil {
		t.Fatal(err)
	}
	if sums[0].Cycles != 3 || sums[0].Evals != 30 {
		t.Fatalf("eval budget ignored: %+v", sums[0])
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	cases := map[string]string{
		"unknown field":        `{"name":"x","nodez":3}`,
		"unknown engine":       `{"name":"x","engine":"quantum"}`,
		"unknown action":       `{"name":"x","timeline":[{"at":1,"action":"meteor"}]}`,
		"unknown function":     `{"name":"x","stack":{"function":"Nope"}}`,
		"unknown topology":     `{"name":"x","stack":{"topology":"hypercube"}}`,
		"unknown solver":       `{"name":"x","stack":{"solvers":["sgd"]}}`,
		"fractional cycle":     `{"name":"x","timeline":[{"at":1.5,"action":"heal"}]}`,
		"join on event":        `{"name":"x","engine":"event","timeline":[{"at":1,"action":"join","count":1}]}`,
		"set-link on cycle":    `{"name":"x","timeline":[{"at":1,"action":"set-link"}]}`,
		"tiny partition":       `{"name":"x","timeline":[{"at":1,"action":"partition","groups":1}]}`,
		"missing name":         `{"nodes":3}`,
		"crash without size":   `{"name":"x","timeline":[{"at":1,"action":"crash"}]}`,
		"stop.time on cycle":   `{"name":"x","stop":{"time":50}}`,
		"stop.cycles on event": `{"name":"x","engine":"event","stop":{"cycles":50}}`,
		"fractional metrics":   `{"name":"x","metrics_every":2.5}`,
		"event past stop":      `{"name":"x","stop":{"cycles":100},"timeline":[{"at":150,"action":"heal"}]}`,
		"event past horizon":   `{"name":"x","engine":"event","stop":{"time":100},"timeline":[{"at":150,"action":"heal"}]}`,
		"drop_prob on event":   `{"name":"x","engine":"event","stack":{"drop_prob":0.3}}`,
		"eval_time on cycle":   `{"name":"x","stack":{"eval_time":2}}`,
		"link on cycle":        `{"name":"x","stack":{"link":{"loss_prob":0.1}}}`,
		"negative delay":       `{"name":"x","engine":"event","stack":{"link":{"min_delay":-5}}}`,
		"loss_prob over 1":     `{"name":"x","engine":"event","timeline":[{"at":1,"action":"set-link","link":{"loss_prob":1.5}}]}`,
		"oneway on heal":       `{"name":"x","timeline":[{"at":1,"action":"heal","oneway":true}]}`,
		"oneway on crash":      `{"name":"x","timeline":[{"at":1,"action":"crash","count":1,"oneway":true}]}`,
	}
	for label, raw := range cases {
		if _, err := Parse([]byte(raw)); err == nil {
			t.Errorf("%s: accepted %s", label, raw)
		}
	}
	good := `{"name":"ok","nodes":12,"timeline":[{"at":3,"action":"partition","groups":2},{"at":1,"action":"crash","fraction":0.5}]}`
	s, err := Parse([]byte(good))
	if err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if s.Timeline[0].Action != "crash" {
		t.Fatalf("timeline not sorted by At: %+v", s.Timeline)
	}
	if s.Stack.Topology != "newscast" || s.Stop.Cycles != 200 {
		t.Fatalf("defaults not applied: %+v", s)
	}
}

// TestTotalWipeoutThenRecovery: a scripted 100% crash must not end the run
// while a later revive/join is still scheduled — outage-and-recovery is a
// legitimate experiment shape.
func TestTotalWipeoutThenRecovery(t *testing.T) {
	spec := Spec{
		Name:  "blackout",
		Nodes: 12,
		Seed:  13,
		Timeline: []Event{
			{At: 5, Action: "crash", Fraction: 1},
			{At: 15, Action: "revive", Count: 12},
		},
		MetricsEvery: 5,
		Stop:         Stop{Cycles: 30},
	}
	var sink captureSink
	sums, err := Run(spec, Options{}, &sink)
	if err != nil {
		t.Fatal(err)
	}
	if sums[0].Cycles != 30 {
		t.Fatalf("run ended at cycle %d during the scripted outage, want 30", sums[0].Cycles)
	}
	liveAt := map[int64]int{}
	for _, r := range sink.recs {
		liveAt[r.Cycle] = r.Live
	}
	if liveAt[10] != 0 || liveAt[20] != 12 {
		t.Fatalf("outage/recovery not visible in metrics: %v", liveAt)
	}
	// Without a scheduled recovery, the same wipeout ends the run early.
	spec.Timeline = spec.Timeline[:1]
	sums, err = Run(spec, Options{}, exp.DiscardSink{})
	if err != nil {
		t.Fatal(err)
	}
	if sums[0].Cycles >= 30 {
		t.Fatalf("dead network without recovery ran to the horizon: %+v", sums[0])
	}
}

// TestEventReviveActsAtScriptedTime: with every node down, engine time
// idles at the crash; the revive must still re-arm timers at its own
// scripted time, not back-date the restart to when the queue went quiet.
func TestEventReviveActsAtScriptedTime(t *testing.T) {
	spec := Spec{
		Name:   "outage",
		Engine: EngineEvent,
		Nodes:  1,
		Seed:   21,
		Stack:  Stack{Particles: 4, GossipEvery: -1},
		Timeline: []Event{
			{At: 50, Action: "crash", Fraction: 1},
			{At: 150, Action: "revive", Count: 1},
		},
		MetricsEvery: 50,
		Stop:         Stop{Time: 200},
	}
	sums, err := Run(spec, Options{}, exp.DiscardSink{})
	if err != nil {
		t.Fatal(err)
	}
	// One node, EvalTime 1 (jitter 0.8–1.2): ~50 evals before the crash
	// plus ~50 after the revive. A back-dated restart (t≈50 instead of
	// 150) would evaluate through the outage and land near 200.
	if got := sums[0].Evals; got < 70 || got > 140 {
		t.Fatalf("%d evals: revive did not act at its scripted time", got)
	}
}

// TestSetLinkWithoutLinkRestoresBaseline: ending a storm with a link-less
// set-link must return to the stack's baseline link, not to a perfect
// zero-latency lossless network.
func TestSetLinkWithoutLinkRestoresBaseline(t *testing.T) {
	spec := Spec{
		Name:   "storm-end",
		Engine: EngineEvent,
		Nodes:  8,
		Seed:   33,
		Stack:  Stack{Particles: 4, Link: &Link{LossProb: 1}}, // baseline: total loss
		Timeline: []Event{
			{At: 50, Action: "set-link", Link: &Link{}}, // calm window
			{At: 100, Action: "set-link"},               // back to baseline
		},
		MetricsEvery: 50,
		Stop:         Stop{Time: 150},
	}
	var sink captureSink
	if _, err := Run(spec, Options{}, &sink); err != nil {
		t.Fatal(err)
	}
	d := map[int64]int64{}
	for _, r := range sink.recs {
		d[r.Cycle] = r.Dropped
	}
	if d[1] == 0 {
		t.Fatalf("baseline total loss dropped nothing: %v", d)
	}
	if d[2] != d[1] {
		t.Fatalf("drops during the lossless window: %v", d)
	}
	if d[3] <= d[2] {
		t.Fatalf("link-less set-link left the network perfect instead of restoring the lossy baseline: %v", d)
	}
}

// TestRepParallelByteIdentical is the campaign-parallelism acceptance
// criterion: Reps=8 on a 4-worker pool must emit bytes identical to the
// sequential runner, for the optimizer stack and for a ported protocol.
func TestRepParallelByteIdentical(t *testing.T) {
	for _, name := range []string{"baseline", "rumor-netsplit"} {
		spec, _ := Builtin(name)
		spec.Stop.Cycles = 60
		render := func(repWorkers int) (string, []RepSummary) {
			var buf bytes.Buffer
			sums, err := Run(spec, Options{Reps: 8, RepWorkers: repWorkers, Workers: 2}, exp.NewCSVSink(&buf))
			if err != nil {
				t.Fatalf("%s repworkers=%d: %v", name, repWorkers, err)
			}
			return buf.String(), sums
		}
		seq, seqSums := render(1)
		par, parSums := render(4)
		if seq != par {
			t.Fatalf("%s: parallel campaign bytes differ from sequential:\n--- seq ---\n%s--- par ---\n%s", name, seq, par)
		}
		if len(seqSums) != len(parSums) {
			t.Fatalf("%s: summary counts differ: %d vs %d", name, len(seqSums), len(parSums))
		}
		for i := range seqSums {
			stripWorkerVariantStats(&seqSums[i].Stats)
			stripWorkerVariantStats(&parSums[i].Stats)
			if seqSums[i] != parSums[i] {
				t.Fatalf("%s rep %d: summaries differ: %+v vs %+v", name, i, seqSums[i], parSums[i])
			}
		}
	}
}

// TestRepParallelOversizedPool: more workers than reps must behave.
func TestRepParallelOversizedPool(t *testing.T) {
	spec, _ := Builtin("baseline")
	spec.Stop.Cycles = 20
	sums, err := Run(spec, Options{Reps: 2, RepWorkers: 16}, exp.DiscardSink{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 2 || sums[0].Rep != 0 || sums[1].Rep != 1 {
		t.Fatalf("oversized pool mangled summaries: %+v", sums)
	}
}

// TestProtocolScenarioWorkerInvariance extends the worker-invariance
// guarantee to the ported protocols: byte-identical metric output for 1, 2
// and 8 propose workers (run under -race in CI, which also keeps the
// parallel propose phase honest for the new Propose implementations).
func TestProtocolScenarioWorkerInvariance(t *testing.T) {
	for _, name := range []string{"rumor-netsplit", "antientropy-lossy", "tman-ring-churn"} {
		render := func(workers int) string {
			spec, _ := Builtin(name)
			var buf bytes.Buffer
			if _, err := Run(spec, Options{Workers: workers}, exp.NewCSVSink(&buf)); err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			return buf.String()
		}
		one := render(1)
		if two := render(2); two != one {
			t.Fatalf("%s: output differs between workers=1 and workers=2", name)
		}
		if eight := render(8); eight != one {
			t.Fatalf("%s: output differs between workers=1 and workers=8", name)
		}
	}
}

// TestRumorNetsplitScenario: while the cut holds the rumor must saturate
// only the seed's island (quality ~0.5), with cross-partition pushes
// counted as drops; after the heal it crosses.
func TestRumorNetsplitScenario(t *testing.T) {
	spec, _ := Builtin("rumor-netsplit")
	var sink captureSink
	if _, err := Run(spec, Options{}, &sink); err != nil {
		t.Fatal(err)
	}
	byCycle := map[int64]exp.Record{}
	for _, r := range sink.recs {
		byCycle[r.Cycle] = r
	}
	// The heal fires before the cycle it names, so the last sample fully
	// inside the partition window is the previous one.
	during := byCycle[int64(spec.Timeline[1].At-spec.MetricsEvery)]
	if during.Quality < 0.5 {
		t.Fatalf("rumor crossed the partition: quality %v before heal", during.Quality)
	}
	if during.Dropped == 0 {
		t.Fatalf("no drops while partitioned: %+v", during)
	}
	final := sink.recs[len(sink.recs)-1]
	if final.Quality > 0.2 {
		t.Fatalf("rumor did not cross after heal: final quality %v", final.Quality)
	}
}

// TestAntiEntropyLossyScenario: 30% loss slows diffusion but every live
// node still converges to the best value.
func TestAntiEntropyLossyScenario(t *testing.T) {
	spec, _ := Builtin("antientropy-lossy")
	var sink captureSink
	sums, err := Run(spec, Options{}, &sink)
	if err != nil {
		t.Fatal(err)
	}
	if sums[0].Quality != 0 {
		t.Fatalf("anti-entropy did not converge: quality %v", sums[0].Quality)
	}
	final := sink.recs[len(sink.recs)-1]
	if final.Lost == 0 {
		t.Fatalf("30%% drop probability lost nothing: %+v", final)
	}
}

// TestAntiEntropyOnewayScenario: under the one-way cut the odd island's
// maximum (node 63) cannot reach the even island — only low→high pushes
// cross — so quality plateaus at ~0.5 while the cut holds; after the heal
// the epidemic floods and quality reaches 0.
func TestAntiEntropyOnewayScenario(t *testing.T) {
	spec, _ := Builtin("antientropy-oneway")
	var sink captureSink
	sums, err := Run(spec, Options{}, &sink)
	if err != nil {
		t.Fatal(err)
	}
	// The heal event (At: 30) fires before cycle 30 runs, so the cycle-20
	// sample is the last one taken wholly inside the cut.
	during := sink.recs[1]
	if during.Cycle != 20 {
		t.Fatalf("expected the cycle-20 sample, got %+v", during)
	}
	if during.Quality < 0.45 {
		t.Fatalf("one-way cut leaked the odd island's maximum into the even island: quality %v at cycle 20", during.Quality)
	}
	if during.Dropped == 0 {
		t.Fatalf("one-way cut dropped nothing: %+v", during)
	}
	if sums[0].Quality != 0 {
		t.Fatalf("epidemic did not converge after the heal: final quality %v", sums[0].Quality)
	}
}

// TestTManRingChurnScenario: the ring survives a 25% crash wave; after the
// revival nearly every node regains a live ring neighbor.
func TestTManRingChurnScenario(t *testing.T) {
	spec, _ := Builtin("tman-ring-churn")
	var sink captureSink
	sums, err := Run(spec, Options{}, &sink)
	if err != nil {
		t.Fatal(err)
	}
	if sums[0].Quality != 0 {
		t.Fatalf("ring did not fully recover after churn (revived peers must clear tombstones on contact): final quality %v", sums[0].Quality)
	}
	final := sink.recs[len(sink.recs)-1]
	if final.Dropped == 0 || final.Lost == 0 {
		t.Fatalf("crash wave produced no failed contacts: %+v", final)
	}
}

// TestNetsplitAcrossProtocols is the acceptance-criteria check that a
// netsplit scenario over each ported protocol reports Dropped > 0 — the
// traffic that used to bypass the delivery filter under the legacy
// NextCycle contract is now visibly blocked at the cut. (Zero state
// leakage is asserted where protocol state is inspectable: the partition-
// isolation tests in internal/gossip and internal/overlay.)
func TestNetsplitAcrossProtocols(t *testing.T) {
	for _, proto := range []string{ProtocolRumor, ProtocolAntiEntropy, ProtocolTMan} {
		spec := Spec{
			Name:         "split-" + proto,
			Nodes:        32,
			Seed:         41,
			Stack:        Stack{Protocol: proto},
			Timeline:     []Event{{At: 0, Action: "partition", Groups: 2}},
			MetricsEvery: 10,
			Stop:         Stop{Cycles: 30},
		}
		var sink captureSink
		if _, err := Run(spec, Options{}, &sink); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		final := sink.recs[len(sink.recs)-1]
		if final.Dropped == 0 {
			t.Fatalf("%s: partition dropped nothing: %+v", proto, final)
		}
		if final.Delivered == 0 {
			t.Fatalf("%s: same-island traffic did not flow: %+v", proto, final)
		}
	}
}

func TestProtocolSpecValidation(t *testing.T) {
	cases := map[string]string{
		"unknown protocol":     `{"name":"x","stack":{"protocol":"plague"}}`,
		"protocol on event":    `{"name":"x","engine":"event","stack":{"protocol":"rumor"}}`,
		"solvers with rumor":   `{"name":"x","stack":{"protocol":"rumor","solvers":["pso"]}}`,
		"function with tman":   `{"name":"x","stack":{"protocol":"tman","function":"Sphere"}}`,
		"particles with ae":    `{"name":"x","stack":{"protocol":"antientropy","particles":8}}`,
		"fanout with opt":      `{"name":"x","stack":{"fanout":3}}`,
		"stop_prob with tman":  `{"name":"x","stack":{"protocol":"tman","stop_prob":0.5}}`,
		"tman_c with rumor":    `{"name":"x","stack":{"protocol":"rumor","tman_c":4}}`,
		"drop_prob with rumor": `{"name":"x","stack":{"protocol":"rumor","drop_prob":0.1}}`,
		"stop_prob over 1":     `{"name":"x","stack":{"protocol":"rumor","stop_prob":1.5}}`,
		"drop_prob over 1":     `{"name":"x","stack":{"protocol":"antientropy","drop_prob":3}}`,
		"drop_prob negative":   `{"name":"x","stack":{"drop_prob":-0.1}}`,
		"max_evals with tman":  `{"name":"x","stack":{"protocol":"tman"},"stop":{"max_evals":10}}`,
		"join with tman":       `{"name":"x","stack":{"protocol":"tman"},"timeline":[{"at":1,"action":"join","count":2}]}`,
	}
	for label, raw := range cases {
		if _, err := Parse([]byte(raw)); err == nil {
			t.Errorf("%s: accepted %s", label, raw)
		}
	}
	s, err := Parse([]byte(`{"name":"ok","stack":{"protocol":"rumor"}}`))
	if err != nil {
		t.Fatalf("valid protocol spec rejected: %v", err)
	}
	if s.Stack.Fanout != 2 || s.Stack.StopProb == nil || *s.Stack.StopProb != 0.2 {
		t.Fatalf("rumor defaults not applied: %+v", s.Stack)
	}
	// An explicit stop_prob of 0 (spreaders never lose interest) is a
	// meaningful extreme and must survive normalization, not be replaced
	// by the default.
	z, err := Parse([]byte(`{"name":"flood","stack":{"protocol":"rumor","stop_prob":0}}`))
	if err != nil {
		t.Fatalf("stop_prob=0 rejected: %v", err)
	}
	if z.Stack.StopProb == nil || *z.Stack.StopProb != 0 {
		t.Fatalf("explicit stop_prob=0 overwritten: %+v", z.Stack)
	}
	// Re-normalizing a normalized protocol spec must be a no-op (Run
	// normalizes what Parse already returned).
	if _, err := s.normalized(); err != nil {
		t.Fatalf("re-normalization rejected a normalized spec: %v", err)
	}
}

// Run re-normalizes internally; the caller's Spec value — including the
// Timeline backing array — must come back untouched.
func TestRunDoesNotMutateCallerSpec(t *testing.T) {
	spec := Spec{
		Name:  "no-mutate",
		Nodes: 8,
		Timeline: []Event{
			{At: 3, Action: "heal"},
			{At: 1, Action: "partition", Groups: 2},
		},
		Stop: Stop{Cycles: 5},
	}
	if _, err := Run(spec, Options{}, exp.DiscardSink{}); err != nil {
		t.Fatal(err)
	}
	if spec.Timeline[0].Action != "heal" || spec.Timeline[1].Action != "partition" {
		t.Fatalf("Run reordered the caller's timeline: %+v", spec.Timeline)
	}
}

// TestEventEngineGossipEveryNegativeDisablesCoordination: gossip_every < 0
// turns coordination off on the event engine as on the cycle engine — no
// exchange is initiated and nothing is adopted.
func TestEventEngineGossipEveryNegativeDisablesCoordination(t *testing.T) {
	spec, _ := Builtin("lossy-wan")
	spec.Stack.GossipEvery = -1
	spec.Timeline = nil
	spec.Stop.Time = 50
	var sink captureSink
	if _, err := Run(spec, Options{}, &sink); err != nil {
		t.Fatal(err)
	}
	last := sink.recs[len(sink.recs)-1]
	if last.Exchanges != 0 || last.Adoptions != 0 {
		t.Fatalf("gossip_every -1 still gossips: %d exchanges, %d adoptions", last.Exchanges, last.Adoptions)
	}
	if last.Evals == 0 {
		t.Fatal("no evaluations")
	}
}

// TestTopologyHonoredOnBothEngines: the slot-0 service of a compiled
// network is the one stack.topology names, on either engine.
func TestTopologyHonoredOnBothEngines(t *testing.T) {
	const n = 16
	for _, topo := range core.TopologyNames() {
		for _, engine := range []string{EngineCycle, EngineEvent} {
			s, err := Spec{Name: "topo", Engine: engine, Nodes: n, Stack: Stack{Topology: topo}}.normalized()
			if err != nil {
				t.Fatal(err)
			}
			var node *sim.Node
			if engine == EngineCycle {
				net := newCycleNet(s, 1, Options{})
				defer net.Engine().Close()
				node = net.Engine().Node(0)
			} else {
				node = newEventNet(s, 1).Engine().Node(0)
			}
			sampler := node.Protocol(core.SlotTopology)
			var ok bool
			switch topo {
			case "newscast":
				_, ok = sampler.(*overlay.Newscast)
			case "cyclon":
				_, ok = sampler.(*overlay.Cyclon)
			default:
				_, ok = sampler.(*overlay.Static)
			}
			if !ok {
				t.Fatalf("%s engine, topology %q: slot 0 holds %T", engine, topo, sampler)
			}
			degree := len(sampler.(overlay.PeerSampler).Neighbors())
			if want := map[string]int{"ring": 2, "star": n - 1, "full": n - 1}[topo]; want != 0 && degree != want {
				t.Fatalf("%s engine, topology %q: node 0 has %d neighbors, want %d", engine, topo, degree, want)
			}
		}
	}
}

// TestEventLinkDefaultIsTheBaseline: normalization fills the event-only
// defaults — the timer periods, and an omitted stack.link once (an
// explicit link, zero fields included, stays as written) — and a bare
// set-link restores that default link, so a spec without a link runs
// exactly like one spelling the default.
func TestEventLinkDefaultIsTheBaseline(t *testing.T) {
	base := Spec{
		Name: "link", Engine: EngineEvent, Nodes: 8, Seed: 3,
		Timeline: []Event{
			{At: 20, Action: "set-link", Link: &Link{MinDelay: 5, MaxDelay: 5}},
			{At: 40, Action: "set-link"},
		},
		MetricsEvery: 10,
		Stop:         Stop{Time: 80},
	}
	s, err := base.normalized()
	if err != nil {
		t.Fatal(err)
	}
	if *s.Stack.Link != (Link{MinDelay: 0.1, MaxDelay: 1}) {
		t.Fatalf("default link = %+v", *s.Stack.Link)
	}
	if s.Stack.EvalTime != 1 || s.Stack.NewscastPeriod != 10 {
		t.Fatalf("default timer periods: eval_time=%v newscast_period=%v, want 1 and 10", s.Stack.EvalTime, s.Stack.NewscastPeriod)
	}
	if again, _ := s.normalized(); !reflect.DeepEqual(again, s) {
		t.Fatal("normalization is not idempotent")
	}
	explicit := base
	explicit.Stack.Link = &Link{MaxDelay: 1}
	if s, _ := explicit.normalized(); *s.Stack.Link != (Link{MaxDelay: 1}) {
		t.Fatalf("explicit link rewritten to %+v", *s.Stack.Link)
	}

	render := func(s Spec) []exp.Record {
		var sink captureSink
		if _, err := Run(s, Options{}, &sink); err != nil {
			t.Fatal(err)
		}
		return sink.recs
	}
	spelled := base
	spelled.Stack.Link = &Link{MinDelay: 0.1, MaxDelay: 1}
	if !reflect.DeepEqual(render(base), render(spelled)) {
		t.Fatal("a spec without stack.link runs differently from one spelling the default")
	}
}
