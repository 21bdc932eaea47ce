package scenario

import (
	"fmt"
	"math"
	"sync"

	"gossipopt/internal/core"
	"gossipopt/internal/exp"
	"gossipopt/internal/funcs"
	"gossipopt/internal/rng"
	"gossipopt/internal/sim"
)

// Options tune a campaign without touching the spec.
type Options struct {
	// Reps is the number of repetitions (default 1); each gets a seed
	// derived from the base seed and its index.
	Reps int
	// BaseSeed overrides the spec's seed when non-zero.
	BaseSeed uint64
	// Workers is the cycle engine's pool parallelism for both phases;
	// ApplyWorkers, when positive, overrides the apply-phase parallelism
	// independently. Output is bit-identical for every combination (the
	// event engine is single-threaded and ignores both).
	Workers      int
	ApplyWorkers int
	// RepWorkers runs repetitions on a bounded worker pool (<= 1:
	// sequential). Each repetition's rows are buffered and flushed into
	// the sink in repetition order, so the emitted bytes are identical to
	// the sequential runner's for every value — RepWorkers, like Workers,
	// only changes wall-clock speed.
	RepWorkers int
	// Progress, when set, is called once per finished repetition — after
	// its rows entered the sink, on the flush goroutine, in canonical
	// cell-then-repetition order. Because it rides the ordered flush, the
	// update stream (timing fields aside) is identical for every worker
	// count. The callback must not write to the campaign's sink.
	Progress func(ProgressUpdate)
}

// ProgressUpdate reports one finished repetition to Options.Progress.
type ProgressUpdate struct {
	// TotalReps and DoneReps count repetition jobs over the whole run
	// (sweeps: cells × reps).
	TotalReps int
	DoneReps  int
	// TotalCells and DoneCells count sweep cells whose repetitions have
	// all been flushed; a campaign is the one-cell case.
	TotalCells int
	DoneCells  int
	// Rows is the number of metric rows flushed into the sink so far.
	Rows int64
	// Cell names the finished repetition's cell (sweeps) or scenario
	// (campaigns); Rep is its index within the cell.
	Cell string
	Rep  int
	// Summary is the finished repetition's end-of-run state, engine
	// instrumentation snapshot included.
	Summary RepSummary
}

// RepSummary is the end-of-run state of one repetition.
type RepSummary struct {
	Rep     int
	Seed    uint64
	Cycles  int64
	Time    float64
	Evals   int64
	Quality float64
	// Reached reports whether the Stop.Quality threshold stopped the run.
	Reached bool
	// Stats is the engine's instrumentation snapshot at the end of the
	// repetition (sim.Engine.Stats). Event-engine repetitions fill only
	// the delivery and eval counters.
	Stats sim.EngineStats
}

// Run executes a campaign: Reps repetitions of the spec, each emitting its
// metric schedule into sink. The emitted rows always appear in repetition
// order — the canonical order the golden tests pin: with RepWorkers <= 1
// the repetitions literally run sequentially; with a worker pool each
// repetition buffers its rows and they are flushed in repetition order, so
// the output bytes are identical either way.
func Run(spec Spec, opts Options, sink exp.Sink) ([]RepSummary, error) {
	spec, err := spec.normalized()
	if err != nil {
		return nil, err
	}
	reps := opts.Reps
	if reps <= 0 {
		reps = 1
	}
	base := opts.BaseSeed
	if base == 0 {
		base = spec.Seed
	}
	if opts.RepWorkers > 1 && reps > 1 {
		return runParallel(spec, base, reps, opts, sink)
	}
	var rows *int64
	if opts.Progress != nil {
		cs := &countSink{sink: sink}
		sink, rows = cs, &cs.rows
	}
	summaries := make([]RepSummary, 0, reps)
	for rep := 0; rep < reps; rep++ {
		sum, err := runRep(spec, base, 0, rep, opts, sink)
		if err != nil {
			return summaries, fmt.Errorf("scenario %q rep %d: %w", spec.Name, rep, err)
		}
		summaries = append(summaries, sum)
		if opts.Progress != nil {
			opts.Progress(campaignUpdate(spec.Name, reps, rep, *rows, sum))
		}
	}
	return summaries, sink.Flush()
}

// campaignUpdate builds the ProgressUpdate of one finished campaign
// repetition (the one-cell case: the cell completes with the last rep).
func campaignUpdate(name string, reps, rep int, rows int64, sum RepSummary) ProgressUpdate {
	u := ProgressUpdate{
		TotalReps: reps, DoneReps: rep + 1,
		TotalCells: 1,
		Rows:       rows,
		Cell:       name, Rep: rep,
		Summary: sum,
	}
	if rep+1 == reps {
		u.DoneCells = 1
	}
	return u
}

// countSink wraps a sink, counting emitted rows for progress reporting.
type countSink struct {
	sink exp.Sink
	rows int64
}

// Emit implements exp.Sink, counting the row through to the wrapped sink.
func (c *countSink) Emit(r exp.Record) error { c.rows++; return c.sink.Emit(r) }

// Flush implements exp.Sink by delegating.
func (c *countSink) Flush() error { return c.sink.Flush() }

// runRep executes one repetition with its derived seed. Single-spec
// campaigns pass cellIdx 0; sweeps pass the cell's grid index, so a
// sweep's cell 0 reproduces the plain campaign of the same spec exactly.
// Only the engine-parallelism knobs of opts are consulted here.
func runRep(spec Spec, base uint64, cellIdx, rep int, opts Options, sink exp.Sink) (RepSummary, error) {
	seed := exp.SeedFor(base, cellIdx, rep)
	var sum RepSummary
	var err error
	if spec.Engine == EngineEvent {
		sum, err = runEventRep(spec, seed, rep, sink)
	} else {
		sum, err = runCycleRep(spec, seed, rep, opts, sink)
	}
	sum.Rep, sum.Seed = rep, seed
	return sum, err
}

// bufferSink collects a repetition's rows in memory so a parallel campaign
// can replay them into the real sink in repetition order.
type bufferSink struct{ recs []exp.Record }

// Emit implements exp.Sink by appending to the in-memory buffer.
func (b *bufferSink) Emit(r exp.Record) error { b.recs = append(b.recs, r); return nil }

// Flush implements exp.Sink; the buffer is drained by its owner.
func (b *bufferSink) Flush() error { return nil }

// repOut carries one finished repetition from a pool worker to the
// ordered flush.
type repOut struct {
	cell, rep int
	sum       RepSummary
	recs      []exp.Record
	err       error
}

// runRepPool executes every (cell, rep) pair — campaigns are the
// one-cell case — on a bounded worker pool and calls handle exactly once
// per job in canonical cell-then-repetition order. Handling streams: a
// job is handed over as soon as every earlier job has been, so completed
// leading cells flush (and free their buffered rows) while later cells
// are still running. A window caps the jobs in flight beyond the handled
// frontier, so even a pathologically slow frontier job (one huge cell
// first in the grid) bounds buffered-but-unhandled rows to the window
// instead of the whole sweep. This is the single implementation of the
// buffer-and-replay pattern behind the worker-invariance guarantee:
// output depends only on job order, never on scheduling. Each job's seed
// derives from (base, cell, rep) via exp.SeedFor. A handle error stops
// further handling (remaining jobs drain without effect) and is
// returned.
func runRepPool(specs []Spec, reps int, opts Options, base uint64, handle func(repOut) error) error {
	njobs := len(specs) * reps
	if njobs == 0 {
		return nil
	}
	poolSize := opts.RepWorkers
	if poolSize > njobs {
		poolSize = njobs
	}
	if poolSize < 1 {
		poolSize = 1
	}
	// The feeder acquires window before enqueueing a job; the frontier
	// loop releases it once the job is handled. 4x the pool keeps workers
	// fed through ordinary scheduling skew without letting results pile
	// up unboundedly behind a slow frontier job.
	window := make(chan struct{}, 4*poolSize)
	type job struct{ cell, rep int }
	jobs := make(chan job)
	results := make(chan repOut, poolSize)
	var wg sync.WaitGroup
	wg.Add(poolSize)
	for w := 0; w < poolSize; w++ {
		go func() {
			defer wg.Done()
			for j := range jobs {
				var buf bufferSink
				sum, err := runRep(specs[j.cell], base, j.cell, j.rep, opts, &buf)
				results <- repOut{cell: j.cell, rep: j.rep, sum: sum, recs: buf.recs, err: err}
			}
		}()
	}
	go func() {
		for ci := range specs {
			for rep := 0; rep < reps; rep++ {
				window <- struct{}{}
				jobs <- job{ci, rep}
			}
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()

	pending := make(map[int]repOut, poolSize)
	next := 0
	var handleErr error
	for out := range results {
		pending[out.cell*reps+out.rep] = out
		for {
			o, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			<-window
			if handleErr == nil {
				handleErr = handle(o)
			}
		}
	}
	return handleErr
}

// runParallel fans the repetitions out over the bounded worker pool.
// Each repetition is seeded from (base, rep) exactly as in the
// sequential path and writes into a private buffer replayed into sink in
// repetition order, so the byte stream — including a CSV sink's
// header-before-first-row behavior — matches the sequential runner's.
// On the first failed repetition the flush stops there: the rows and
// summaries already produced are exactly the sequential runner's.
func runParallel(spec Spec, base uint64, reps int, opts Options, sink exp.Sink) ([]RepSummary, error) {
	summaries := make([]RepSummary, 0, reps)
	var rows int64
	err := runRepPool([]Spec{spec}, reps, opts, base, func(o repOut) error {
		if o.err != nil {
			return fmt.Errorf("scenario %q rep %d: %w", spec.Name, o.rep, o.err)
		}
		for _, r := range o.recs {
			if err := sink.Emit(r); err != nil {
				return fmt.Errorf("scenario %q rep %d: %w", spec.Name, o.rep, err)
			}
		}
		rows += int64(len(o.recs))
		summaries = append(summaries, o.sum)
		if opts.Progress != nil {
			opts.Progress(campaignUpdate(spec.Name, reps, o.rep, rows, o.sum))
		}
		return nil
	})
	if err != nil {
		return summaries, err
	}
	return summaries, sink.Flush()
}

// newCycleNet compiles the spec onto the cycle engine: the optimizer
// network, or one of the epidemic-protocol networks when stack.protocol
// says so. Spec names are pre-validated, so registry lookups cannot fail
// here.
func newCycleNet(s Spec, seed uint64, opts Options) cycleNet {
	if mkNet, ok := protocolBuilders[s.Stack.Protocol]; ok {
		return mkNet(s, seed, opts)
	}
	return optNet{core.NewNetwork(optConfig(s, seed, opts))}
}

// newEventNet compiles the spec's optimizer stack onto the event engine.
func newEventNet(s Spec, seed uint64) *core.EventNetwork {
	return core.NewEventNetwork(optConfig(s, seed, Options{}),
		s.Stack.EvalTime, s.Stack.NewscastPeriod, toUniformLink(s.Stack.Link))
}

// runCycleRep runs one repetition of the spec on the cycle engine.
func runCycleRep(s Spec, seed uint64, rep int, opts Options, sink exp.Sink) (RepSummary, error) {
	net := newCycleNet(s, seed, opts)
	eng := net.Engine()
	// Campaigns build one engine per repetition; release its worker pool
	// deterministically instead of waiting for the finalizer backstop.
	defer eng.Close()

	ns := netState{baseline: s.Stack.Net, link: netModelOf(s.Stack.Net)}
	if ns.link != nil {
		ns.install(eng)
	}

	emit := func(cycle int64) error {
		exchanges, lost, adoptions := net.Counters()
		return sink.Emit(exp.Record{
			Scenario:  s.Name,
			Rep:       rep,
			Seed:      seed,
			Cycle:     cycle,
			Time:      float64(cycle),
			Live:      eng.LiveCount(),
			Evals:     net.TotalEvals(),
			Quality:   net.Quality(),
			Exchanges: exchanges,
			Lost:      lost,
			Adoptions: adoptions,
			Delivered: eng.Delivered(),
			Dropped:   eng.Dropped(),
		})
	}

	every := int64(s.MetricsEvery)
	if every < 1 {
		every = 1
	}
	ei := 0
	var lastEmit int64 = -1
	var sum RepSummary
	var c int64
	var evScratch []*sim.Node // reused across scripted events (crash/revive scans)
	for c = 0; c < s.Stop.Cycles; c++ {
		for ei < len(s.Timeline) && int64(s.Timeline[ei].At) <= c {
			applyCycleEvent(eng, &ns, s.Timeline[ei], &evScratch)
			ei++
		}
		eng.RunCycle()
		done := c + 1
		if done%every == 0 {
			if err := emit(done); err != nil {
				return sum, err
			}
			lastEmit = done
		}
		if s.Stop.Quality != nil && net.Quality() <= *s.Stop.Quality {
			sum.Reached = true
			c = done
			break
		}
		if s.Stop.MaxEvals > 0 && net.TotalEvals() >= s.Stop.MaxEvals {
			c = done
			break
		}
		// A dead network only ends the run if the script holds no
		// revival: a total wipeout followed by a scripted join/revive is
		// a legitimate outage-and-recovery experiment, and validation
		// promised every timeline entry fires.
		if eng.LiveCount() == 0 && !recoveryAhead(s.Timeline[ei:]) {
			c = done
			break
		}
	}
	if lastEmit != c {
		if err := emit(c); err != nil {
			return sum, err
		}
	}
	sum.Cycles = c
	sum.Time = float64(c)
	sum.Evals = net.TotalEvals()
	sum.Quality = net.Quality()
	sum.Stats = eng.Stats()
	return sum, nil
}

// optConfig compiles the spec's optimizer stack into the core
// configuration both engines build from (the event engine ignores the
// worker counts).
func optConfig(s Spec, seed uint64, opts Options) core.Config {
	fn, _ := funcs.ByName(s.Stack.Function)
	topo, _ := core.TopologyByName(s.Stack.Topology)
	factory, _ := core.SolversByName(s.Stack.Solvers, s.Stack.Particles)
	return core.Config{
		Nodes:         s.Nodes,
		Particles:     s.Stack.Particles,
		GossipEvery:   gossipEvery(s.Stack.GossipEvery),
		ViewSize:      s.Stack.ViewSize,
		Function:      fn,
		Dim:           s.Stack.Dim,
		Seed:          seed,
		Topology:      topo,
		SolverFactory: factory,
		DropProb:      s.Stack.DropProb,
		Workers:       opts.Workers,
		ApplyWorkers:  opts.ApplyWorkers,
	}
}

// recoveryAhead reports whether any remaining scripted event can bring
// nodes back to life.
func recoveryAhead(events []Event) bool {
	for _, ev := range events {
		if ev.Action == "join" || ev.Action == "revive" {
			return true
		}
	}
	return false
}

// gossipEvery maps the spec convention (negative disables coordination) to
// the core one (zero disables).
func gossipEvery(r int) int {
	if r < 0 {
		return 0
	}
	return r
}

// netState tracks the cycle engine's per-link network-model stack across
// scripted events: the spec's baseline model, the currently installed link
// model, and the Byzantine adversary roster. The roster survives link-model
// swaps — a storm passing does not heal the adversaries — and only a
// byzantine "none" event clears it.
type netState struct {
	baseline *NetSpec
	link     sim.NetModel
	byz      *sim.Byzantine
}

// install composes the Byzantine roster with the current link model —
// adversaries judge first, so a blackholed leg spends no loss-model draws —
// and installs the result on the engine (nil when both parts are empty).
func (ns *netState) install(eng *sim.Engine) {
	var byz sim.NetModel
	if ns.byz != nil && ns.byz.Len() > 0 {
		byz = ns.byz
	}
	eng.SetNetModel(sim.Compose(byz, ns.link))
}

// netModelOf compiles a NetSpec into the engine model it describes:
// correlated regional outages first, then i.i.d. per-leg loss and delay.
// A nil or all-zero spec compiles to nil (no model).
func netModelOf(n *NetSpec) sim.NetModel {
	if n == nil {
		return nil
	}
	var models []sim.NetModel
	if n.Regions >= 2 {
		models = append(models, sim.NewRegionalOutage(n.Regions, n.RegionFail, n.RegionRecover))
	}
	if n.Loss > 0 || n.DelayMax > 0 {
		models = append(models, sim.LossyLinks{Loss: n.Loss, DelayMin: n.DelayMin, DelayMax: n.DelayMax})
	}
	return sim.Compose(models...)
}

// byzBehavior maps a validated byzantine-event behavior name to the sim
// constant.
func byzBehavior(name string) sim.ByzBehavior {
	switch name {
	case "drop":
		return sim.ByzDrop
	case "delay":
		return sim.ByzDelay
	case "corrupt":
		return sim.ByzCorrupt
	}
	return 0
}

// host is what the scripted events common to both engines need.
type host interface {
	RNG() *rng.RNG
	Size() int
	Node(id sim.NodeID) *sim.Node
	AppendLiveNodes(buf []*sim.Node) []*sim.Node
	Crash(id sim.NodeID)
	Revive(id sim.NodeID)
	SetDeliveryFilter(f sim.DeliveryFilter)
}

// applyHostEvent fires a crash, revive, partition or heal event on either
// engine and reports whether ev was one of them. Random choices draw from
// the engine RNG on the coordinator goroutine, so scripted runs stay
// worker-invariant. scratch is the caller's reusable node buffer: crash
// scans snapshot into it instead of allocating a fresh slice per event.
func applyHostEvent(h host, ev Event, scratch *[]*sim.Node) bool {
	switch ev.Action {
	case "crash":
		live := h.AppendLiveNodes((*scratch)[:0])
		*scratch = live
		kill := eventCount(ev, len(live))
		perm := h.RNG().Perm(len(live))
		for i := 0; i < kill && i < len(perm); i++ {
			h.Crash(live[perm[i]].ID)
		}
	case "revive":
		left := ev.Count
		for id := sim.NodeID(0); left > 0 && int(id) < h.Size(); id++ {
			if !h.Node(id).Alive {
				h.Revive(id)
				left--
			}
		}
	case "partition":
		h.SetDeliveryFilter(partitionFilter(ev))
	case "heal":
		h.SetDeliveryFilter(nil)
	default:
		return false
	}
	return true
}

// applyCycleEvent fires one scripted event on the cycle engine, before the
// cycle it names runs.
func applyCycleEvent(eng *sim.Engine, ns *netState, ev Event, scratch *[]*sim.Node) {
	if applyHostEvent(eng, ev, scratch) {
		return
	}
	switch ev.Action {
	case "join":
		for i := 0; i < ev.Count; i++ {
			eng.AddNode()
		}
	case "link-model":
		spec := ev.Model
		if spec == nil {
			spec = ns.baseline
		}
		ns.link = netModelOf(spec)
		ns.install(eng)
	case "byzantine":
		if ev.Behavior == "none" {
			if ns.byz != nil {
				ns.byz.Clear()
			}
			ns.install(eng)
			break
		}
		if ns.byz == nil {
			ns.byz = sim.NewByzantine()
		}
		live := eng.AppendLiveNodes((*scratch)[:0])
		*scratch = live
		k := eventCount(ev, len(live))
		perm := eng.RNG().Perm(len(live))
		beh := byzBehavior(ev.Behavior)
		for i := 0; i < k && i < len(perm); i++ {
			ns.byz.Set(live[perm[i]].ID, beh)
		}
		ns.install(eng)
	}
}

// partitionFilter builds the delivery filter of a partition event: a
// symmetric split, or a directional one when oneway is set.
func partitionFilter(ev Event) sim.DeliveryFilter {
	if ev.OneWay {
		return sim.SplitGroupsOneWay(ev.Groups)
	}
	return sim.SplitGroups(ev.Groups)
}

// eventCount resolves an event's victim count: Count wins, otherwise the
// fraction of the current population, both capped at n.
func eventCount(ev Event, n int) int {
	k := ev.Count
	if k <= 0 {
		k = int(ev.Fraction * float64(n))
	}
	if k > n {
		k = n
	}
	return k
}

// runEventRep runs one repetition of the spec on the event engine.
// Breakpoints — scripted events, metric samples, the horizon — partition
// simulated time; the engine runs to each in turn.
func runEventRep(s Spec, seed uint64, rep int, sink exp.Sink) (RepSummary, error) {
	net := newEventNet(s, seed)
	eng := net.Engine()

	var sampleIdx int64
	emit := func(at float64) error {
		sampleIdx++
		m := net.Metrics()
		return sink.Emit(exp.Record{
			Scenario:  s.Name,
			Rep:       rep,
			Seed:      seed,
			Cycle:     sampleIdx,
			Time:      at,
			Live:      eng.LiveCount(),
			Evals:     net.TotalEvals(),
			Quality:   net.Quality(),
			Exchanges: m.Exchanges,
			Lost:      m.LostExchanges,
			Adoptions: m.Adoptions,
			Delivered: eng.Delivered(),
			Dropped:   eng.Dropped(),
		})
	}

	horizon := s.Stop.Time
	ei := 0
	nextSample := s.MetricsEvery
	var sum RepSummary
	now := 0.0
	var evScratch []*sim.Node // reused across scripted events (crash scans)
	for {
		// The next breakpoint: scripted event, metric sample, or horizon.
		next := horizon
		isSample := false
		if nextSample < next {
			next, isSample = nextSample, true
		}
		hasEvent := ei < len(s.Timeline) && s.Timeline[ei].At <= next
		if hasEvent {
			next = s.Timeline[ei].At
			isSample = isSample && next == nextSample
		}
		eng.RunUntil(next, math.MaxInt64)
		// RunUntil leaves the clock at the last delivered event; advance
		// it to the breakpoint so events below act at their scripted time
		// (a revive must re-arm its timers from At, not from whenever the
		// queue went quiet).
		eng.AdvanceTo(next)
		now = next
		if hasEvent {
			applyEventEvent(eng, s.Timeline[ei], s.Stack.Link, &evScratch)
			ei++
		}
		if isSample {
			if err := emit(now); err != nil {
				return sum, err
			}
			nextSample += s.MetricsEvery
		}
		if s.Stop.Quality != nil && net.Quality() <= *s.Stop.Quality {
			sum.Reached = true
			break
		}
		if s.Stop.MaxEvals > 0 && net.TotalEvals() >= s.Stop.MaxEvals {
			break
		}
		if now >= horizon {
			break
		}
	}
	// Final sample, unless the run stopped exactly on a scheduled one.
	if nextSample-s.MetricsEvery != now || sampleIdx == 0 {
		if err := emit(now); err != nil {
			return sum, err
		}
	}
	sum.Cycles = sampleIdx
	sum.Time = now
	sum.Evals = net.TotalEvals()
	sum.Quality = net.Quality()
	// The event engine has no instrumentation snapshot; carry the counters
	// it does expose so statsjson lines stay meaningful across engines.
	sum.Stats = sim.EngineStats{
		Delivered: eng.Delivered(),
		Dropped:   eng.Dropped(),
		Evals:     net.TotalEvals(),
	}
	return sum, nil
}

// toUniformLink converts a spec Link to the engine's model.
func toUniformLink(l *Link) sim.UniformLink {
	return sim.UniformLink{MinDelay: l.MinDelay, MaxDelay: l.MaxDelay, LossProb: l.LossProb}
}

// applyEventEvent fires one scripted event on the event engine. baseline
// is the spec's initial link model (normalization always sets one): a
// set-link without an explicit link restores it (ending a storm means back
// to normal, not back to a perfect network).
func applyEventEvent(eng *sim.EventEngine, ev Event, baseline *Link, scratch *[]*sim.Node) {
	if applyHostEvent(eng, ev, scratch) {
		return
	}
	if ev.Action == "set-link" {
		link := ev.Link
		if link == nil {
			link = baseline
		}
		eng.SetLink(toUniformLink(link))
	}
}
