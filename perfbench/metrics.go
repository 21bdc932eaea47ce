package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics a user of the simulator sees, reported by every
// workload (README.md gives each one's meaning per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"node_cycles_per_s", "1/s"},
	{"tta_s", "s"},
	{"campaign_s", "s"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the traced run's metrics, named <module>.<metric>. Every
// workload reports all of them; a layer a workload does not exercise
// reads 0.
var perLayer = []metricDef{
	{"overlay.newscast_receive_s", "s"},
	{"overlay.newscast_receive_calls", "count"},
	{"overlay.newscast_receive_ns", "ns"},
	{"overlay.newscast_receive_frac", "ratio"},
	{"sim.propose_s", "s"},
	{"sim.apply_s", "s"},
	{"sim.apply_other_s", "s"},
	{"sim.propose_frac", "ratio"},
	{"sim.cycle_ms_p50", "ms"},
	{"sim.cycle_ms_p90", "ms"},
	{"sim.apply_jobs", "count"},
	{"sim.delivered", "count"},
	{"sim.dropped", "count"},
	{"sim.delayed", "count"},
	{"sim.payloads_recycled", "count"},
	{"sim.shard_skew", "ratio"},
	{"sim.allocs_per_cycle", "count"},
	{"sim.bytes_per_cycle", "B"},
	{"sim.freelist_hit_rate", "ratio"},
	{"sim.propose_parallel_eff", "ratio"},
	{"sim.apply_parallel_eff", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"pso.evalone_self_s", "s"},
	{"pso.evalone_frac", "ratio"},
	{"pso.inject_calls", "count"},
	{"funcs.evals", "count"},
	{"funcs.eval_s", "s"},
	{"funcs.eval_ns", "ns"},
	{"core.quality_s", "s"},
	{"core.exchanges", "count"},
	{"core.adoptions", "count"},
	{"core.tta_cycles", "cycles"},
	{"core.final_log10_quality", "log10"},
	{"scenario.rep_s_p50", "s"},
	{"scenario.rep_s_max", "s"},
	{"scenario.event_rep_s", "s"},
	{"exp.rows", "count"},
	{"exp.emit_s", "s"},
	{"trace.overhead_frac", "ratio"},
}

// infoUnits are the units of the workload-specific outputs printed on
// "output" lines: deterministic per seed, so the tests check them for
// exact repeats instead of bounding them.
var infoUnits = map[string]string{
	"tta_cycles":          "cycles",
	"final_log10_quality": "log10",
	"failed_frac":         "ratio",
	"operations":          "count",
	"exchanges":           "count",
	"adoptions":           "count",
}

// mode selects how a workload pass runs.
type mode int

const (
	// modePlain is the untraced measurement at the workload's worker count.
	modePlain mode = iota
	// modeTraced repeats it with a timing wrapper around every layer.
	modeTraced
	// modeBaseline repeats it untraced on one worker: the plain
	// single-threaded run the parallel-efficiency metrics compare against.
	modeBaseline
)

// workload is one benchmark workload; README.md says why each was chosen.
type workload struct {
	name string
	// parallel workloads run a multi-worker engine, so a traced run adds
	// the single-worker baseline pass.
	parallel bool
	run      func(o options, m mode) (pass, error)
}

var workloads = map[string]workload{}

func register(w workload) { workloads[w.name] = w }

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// pass is the outcome of one workload pass.
type pass struct {
	attempted, failed int64
	// e2e are the end-to-end metrics, info the workload-specific outputs.
	e2e, info map[string]float64
	// outputs are the deterministic results the spectator check compares
	// (traced must equal untraced); digests the final states the
	// worker-invariance check compares (workers=1 must equal workers=n).
	outputs, digests []string
	// engine is the summed engine-stats delta over the measured work,
	// layers the summed per-node wrapper timings (traced passes only).
	engine       engineDelta
	layers       layerAcc
	cycleSeconds []float64
	quality      time.Duration
	rt           runtimeDelta
	camp         campaignLayers
	spans        *spanLog
}

// check counts one checked operation, failed unless ok.
func (p *pass) check(ok bool) {
	p.attempted++
	if !ok {
		p.failed++
	}
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// log10Quality maps a solution quality to log10, flooring exact zeros at
// the smallest positive double so the mean stays finite.
func log10Quality(q float64) float64 {
	return math.Log10(math.Max(q, math.SmallestNonzeroFloat64))
}

// machine is the host context recorded with every result.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go"`
	CPUModel   string `json:"cpu"`
	LoadAvg    string `json:"loadavg"`
	SingleCPU  bool   `json:"single_cpu"`
}

func machineContext(workers int) machine {
	m := machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		LoadAvg:    "unknown",
	}
	m.SingleCPU = m.NProc < 2 || m.GOMAXPROCS < 2
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) >= 3 {
			m.LoadAvg = strings.Join(f[:3], " ")
		}
	}
	return m
}

// heapSampler tracks the peak live heap of a pass: the largest heap a
// garbage collection found live. Live bytes rather than allocated bytes
// keep the figure independent of when collections happen to run
// (allocation volume is reported per layer as sim.bytes_per_cycle).
// Workloads that hold their networks call mark at the end of each
// measured network; the campaign, whose networks live inside the
// scenario runner, polls the collector's figure every few milliseconds
// instead (runtime/metrics reads do not stop the world).
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	peak uint64
}

const heapMetric = "/gc/heap/live:bytes"

func readLiveHeap() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func (h *heapSampler) observe(v uint64) {
	h.mu.Lock()
	h.peak = max(h.peak, v)
	h.mu.Unlock()
}

// startHeapSampler returns a sampler; poll starts the polling goroutine.
func startHeapSampler(poll bool) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	if !poll {
		return h
	}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			h.observe(readLiveHeap())
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// mark forces a collection while a workload's largest state is still
// reachable and records what it found live. Call it outside timed
// sections.
func (h *heapSampler) mark() {
	runtime.GC()
	h.observe(readLiveHeap())
}

// done stops the polling and returns the peak in MB.
func (h *heapSampler) done() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}

// runtimeDelta is the allocation and GC activity over measured sections,
// read from runtime/metrics (no stop-the-world, unlike ReadMemStats).
type runtimeDelta struct {
	allocs, bytes, gcCycles, gcCPU, totalCPU float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// rtSnap is one reading of runtimeNames.
type rtSnap [5]float64

func readRuntime() rtSnap {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var out rtSnap
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// add accumulates the activity between readings a and b.
func (d *runtimeDelta) add(a, b rtSnap) {
	d.allocs += b[0] - a[0]
	d.bytes += b[1] - a[1]
	d.gcCycles += b[2] - a[2]
	d.gcCPU += b[3] - a[3]
	d.totalCPU += b[4] - a[4]
}
