package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"gossipopt/internal/exp"
	"gossipopt/internal/scenario"
	"gossipopt/internal/sim"
)

// scenario-campaign is the declarative layer as users drive it: a
// rumor/anti-entropy link-loss sweep and an event-engine WAN campaign on a
// repetition pool.
func init() {
	register(workload{name: "scenario-campaign", run: runCampaign})
}

// campaignSize is the scenario-campaign configuration: the built-in
// protocol-vs-linkloss sweep with its base scaled up, and the built-in
// lossy-wan scenario scaled up on the event engine.
type campaignSize struct {
	sweepNodes, sweepReps int
	wanNodes, wanReps     int
	// campaignSeconds is the reference host's wall time of one campaign;
	// the run repeats the same campaign round(seconds/campaignSeconds)
	// times. setups is the number of set-ups timed for their median.
	campaignSeconds float64
	setups          int
}

func campaignSizeFor(o options) campaignSize {
	if o.small {
		return campaignSize{sweepNodes: 48, sweepReps: 2, wanNodes: 32, wanReps: 2, campaignSeconds: 1e9, setups: 2}
	}
	return campaignSize{sweepNodes: 5000, sweepReps: 3, wanNodes: 1000, wanReps: 4, campaignSeconds: 5, setups: 7}
}

// campaignLayers are the scenario-layer timings of a traced pass.
type campaignLayers struct {
	// repSeconds is each cycle-engine repetition's engine time (propose
	// plus apply); eventRepSeconds the event part's wall time per
	// repetition worker-slot.
	repSeconds      []float64
	eventRepSeconds float64
	rows            int64
	emit            time.Duration
}

// campaignSpecs builds the two parts' specs.
func campaignSpecs(sz campaignSize) (scenario.SweepSpec, scenario.Spec, error) {
	sw, ok := scenario.BuiltinSweep("protocol-vs-linkloss")
	wan, ok2 := scenario.Builtin("lossy-wan")
	if !ok || !ok2 {
		return sw, wan, fmt.Errorf("built-in protocol-vs-linkloss or lossy-wan missing")
	}
	sw.Base.Nodes = sz.sweepNodes
	sw.Reps = sz.sweepReps
	wan.Nodes = sz.wanNodes
	return sw, wan, nil
}

// timingSink times every Emit and Flush of the real sink it wraps and
// keeps each repetition's last row, whose coordination counters are the
// repetition's totals.
type timingSink struct {
	inner exp.Sink
	rows  int64
	d     time.Duration
	last  map[int]exp.Record
}

// Emit implements exp.Sink, timing the wrapped sink.
func (t *timingSink) Emit(r exp.Record) error {
	start := time.Now()
	err := t.inner.Emit(r)
	t.d += time.Since(start)
	t.rows++
	t.last[r.Rep] = r
	return err
}

// Flush implements exp.Sink, timing the wrapped sink.
func (t *timingSink) Flush() error {
	start := time.Now()
	err := t.inner.Flush()
	t.d += time.Since(start)
	return err
}

// campaignRun is one campaign's outcome.
type campaignRun struct {
	sweep, wan time.Duration
	// cellSeconds holds each sweep cell's repetition engine times (propose
	// plus apply) in cell order; wanEvals counts the event part's
	// evaluation ticks.
	cellSeconds    [][]float64
	wanEvals       float64
	reps           int
	csv            [2]string
	summaries      []scenario.RepSummary
	sweepSummaries int
}

// runCampaignOnce runs both parts with the given repetition workers,
// writing each part's CSV rows into a hash. With a span log it also times
// the sink and the progress callbacks.
func runCampaignOnce(sw scenario.SweepSpec, wan scenario.Spec, sz campaignSize, seed uint64, repWorkers int, p *pass, parent int) (campaignRun, error) {
	var cr campaignRun
	for part := 0; part < 2; part++ {
		h := sha256.New() // the CSV bytes are compared, not stored
		csv := exp.NewCSVSink(h)
		var sink exp.Sink = csv
		ts := &timingSink{inner: csv, last: map[int]exp.Record{}}
		if p.spans != nil {
			sink = ts
		}
		name := [2]string{"sweep", "lossy-wan"}[part]
		start := time.Now()
		ps := p.spans.open(name, parent, start)
		last := start
		opts := scenario.Options{RepWorkers: repWorkers, BaseSeed: seed}
		if p.spans != nil {
			opts.Progress = func(u scenario.ProgressUpdate) {
				now := time.Now()
				p.spans.add("rep-flush", ps, last, now)
				last = now
			}
		}
		var sums []scenario.RepSummary
		if part == 0 {
			cells, err := scenario.RunSweep(sw, opts, sink)
			if err != nil {
				return cr, err
			}
			for _, c := range cells {
				secs := make([]float64, len(c.Sums))
				for i, s := range c.Sums {
					secs[i] = float64(s.Stats.ProposeNanos+s.Stats.ApplyNanos) / 1e9
				}
				cr.cellSeconds = append(cr.cellSeconds, secs)
				sums = append(sums, c.Sums...)
			}
			cr.sweepSummaries = len(sums)
		} else {
			opts.Reps = sz.wanReps
			var err error
			sums, err = scenario.Run(wan, opts, sink)
			if err != nil {
				return cr, err
			}
			for _, s := range sums {
				cr.wanEvals += float64(s.Evals) // one evaluation per node tick
			}
		}
		end := time.Now()
		p.spans.close(ps, end)
		if part == 0 {
			cr.sweep = end.Sub(start)
		} else {
			cr.wan = end.Sub(start)
		}
		cr.summaries = append(cr.summaries, sums...)
		cr.csv[part] = fmt.Sprintf("%x", h.Sum(nil))
		if p.spans != nil {
			p.camp.rows += ts.rows
			p.camp.emit += ts.d
			if part == 1 {
				for _, r := range ts.last {
					p.info["exchanges"] += float64(r.Exchanges)
					p.info["adoptions"] += float64(r.Adoptions)
				}
			}
		}
	}
	cr.reps = len(cr.summaries)
	return cr, nil
}

// countersConsistent checks one repetition's delivery counters. Cycle
// engine: no counter is negative, every corrupted leg is also dropped,
// every handled job was a delivery or a bounced drop, the engine ran the
// summary's cycles and delivered something. Event engine (which exposes
// only deliveries, drops and evaluations): every evaluation is one
// delivered timer, so deliveries exceed evaluations; the lossy link
// dropped some legs; and each of the nodes ticked once per evalTime ±20 %
// over the simulated time (its first tick within the first evalTime).
func countersConsistent(s scenario.RepSummary, event bool, nodes int, evalTime float64) bool {
	st := s.Stats
	if st.Delivered < 0 || st.Dropped < 0 || st.Delayed < 0 || st.Corrupted < 0 {
		return false
	}
	if event {
		ticks := s.Time / evalTime
		lo, hi := float64(nodes)*(ticks-1)/1.2, float64(nodes)*(ticks/0.8+1)
		return st.Delivered > s.Evals && st.Dropped > 0 &&
			float64(s.Evals) >= lo && float64(s.Evals) <= hi
	}
	return st.Corrupted <= st.Dropped &&
		st.ApplyJobs >= st.Delivered && st.ApplyJobs <= st.Delivered+st.Dropped &&
		st.Cycles == s.Cycles && st.Delivered > 0
}

func runCampaign(o options, m mode) (pass, error) {
	sz := campaignSizeFor(o)
	sw, wan, err := campaignSpecs(sz)
	if err != nil {
		return pass{}, err
	}
	p := newPass(m)
	heap := startHeapSampler(true)

	// Set-up: compiling both specs and building every repetition's network
	// (all of the sweep's cells and repetitions, and lossy-wan's
	// repetitions), with each run cut to a single cycle (or time unit) so
	// that construction is what is timed.
	setupSw, setupWan := sw, wan
	setupSw.Base.Stop = scenario.Stop{Cycles: 1}
	setupWan.Stop, setupWan.Timeline = scenario.Stop{Time: 1}, nil
	var setups []float64
	for i := 0; i < sz.setups; i++ {
		runtime.GC() // as buildNetwork: each set-up starts from a collected heap
		start := time.Now()
		if _, err := scenario.RunSweep(setupSw, scenario.Options{BaseSeed: o.Seed}, exp.DiscardSink{}); err != nil {
			return pass{}, err
		}
		if _, err := scenario.Run(setupWan, scenario.Options{BaseSeed: o.Seed, Reps: sz.wanReps}, exp.DiscardSink{}); err != nil {
			return pass{}, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	evalTime := wan.Stack.EvalTime
	if evalTime == 0 {
		evalTime = 1 // core.AsyncConfig's default
	}
	workers := o.Workers
	rt0 := readRuntime()
	start := time.Now()
	wl := p.spans.open("workload", 0, start)
	var walls, wanRates, logq, eventRep []float64
	var cellSeconds [][]float64
	var first campaignRun
	n := rounds(o.Seconds, sz.campaignSeconds)
	for i := 0; i < n; i++ {
		cid := p.spans.open("campaign", wl, time.Now())
		cr, err := runCampaignOnce(sw, wan, sz, o.Seed, workers, p, cid)
		if err != nil {
			return pass{}, err
		}
		p.spans.close(cid, time.Now())
		walls = append(walls, (cr.sweep + cr.wan).Seconds())
		wanRates = append(wanRates, cr.wanEvals/cr.wan.Seconds())
		for c, secs := range cr.cellSeconds {
			if c == len(cellSeconds) {
				cellSeconds = append(cellSeconds, nil)
			}
			cellSeconds[c] = append(cellSeconds[c], secs...)
		}
		for j, s := range cr.summaries {
			event := j >= cr.sweepSummaries
			if i == 0 {
				nodes := sw.Base.Nodes
				if event {
					nodes = wan.Nodes
				}
				p.check(countersConsistent(s, event, nodes, evalTime))
				p.outputs = append(p.outputs, fmt.Sprintf("rep %d seed=%d cycles=%d evals=%d q=%x delivered=%d dropped=%d",
					j, s.Seed, s.Cycles, s.Evals, s.Quality, s.Stats.Delivered, s.Stats.Dropped))
			}
			if !event {
				p.engine.add(sim.EngineStats{}, s.Stats)
				busy := float64(s.Stats.ProposeNanos+s.Stats.ApplyNanos) / 1e9
				p.camp.repSeconds = append(p.camp.repSeconds, busy)
				p.cycleSeconds = append(p.cycleSeconds, busy/float64(s.Cycles))
			} else {
				p.engine.delivered += s.Stats.Delivered
				p.engine.dropped += s.Stats.Dropped
				if i == 0 {
					logq = append(logq, log10Quality(s.Quality))
				}
			}
		}
		eventRep = append(eventRep, cr.wan.Seconds()*float64(min(workers, sz.wanReps))/float64(sz.wanReps))
		if i == 0 {
			first = cr
			p.outputs = append(p.outputs, "csv "+cr.csv[0]+" "+cr.csv[1])
		} else {
			// The same campaign again must produce the same bytes.
			p.check(cr.csv == first.csv)
		}
	}
	end := time.Now()
	p.spans.close(wl, end)
	p.rt.add(rt0, readRuntime())

	// The sweep's cells differ several-fold in cost (rumor against
	// anti-entropy), so a median over all repetitions would fall between
	// the two groups; each cell's median repetition time is taken over its
	// repetitions in every campaign, then averaged over the cells.
	cellMedians := make([]float64, len(cellSeconds))
	for c, secs := range cellSeconds {
		cellMedians[c] = median(secs)
	}
	p.e2e["setup_s"] = median(setups)
	p.e2e["node_cycles_per_s"] = median(wanRates)
	p.e2e["tta_s"] = mean(cellMedians)
	p.e2e["campaign_s"] = median(walls)
	p.e2e["peak_heap_mb"] = heap.done()
	p.info["operations"] = float64(first.reps)
	p.info["final_log10_quality"] = mean(logq)
	p.camp.eventRepSeconds = median(eventRep)
	return p.finish(), nil
}
