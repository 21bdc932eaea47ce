// Package scenario is the declarative experiment layer: a Spec describes
// an experiment as data — population size, the overlay + solver stack, a
// timeline of scripted events (churn bursts, network partitions and heals,
// link-model swaps, crash/restart waves), a metric schedule and stop
// conditions — and the runner compiles one spec onto either the
// cycle-driven sim.Engine or the event-driven sim.EventEngine and runs a
// seeded campaign of repetitions.
//
// Determinism is the contract: the same spec + seed produces bit-identical
// metric output at any worker count, extending the engine's worker-
// invariance guarantee up through this layer. Every name a spec uses
// (functions, topologies, solvers) resolves through the registries in
// internal/funcs and internal/core.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"gossipopt/internal/core"
	"gossipopt/internal/funcs"
)

// Spec is one declarative experiment.
type Spec struct {
	// Name labels the scenario in metric output.
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Engine selects the execution model: "cycle" (default, the paper's
	// lock-step model) or "event" (asynchronous, with link latency/loss).
	Engine string `json:"engine,omitempty"`
	// Nodes is the initial population (default 64).
	Nodes int `json:"nodes,omitempty"`
	// Seed drives the whole campaign; repetition seeds derive from it.
	Seed uint64 `json:"seed,omitempty"`
	// Stack describes the per-node protocol stack by name.
	Stack Stack `json:"stack,omitempty"`
	// Timeline is the scripted event sequence, applied in At order.
	Timeline []Event `json:"timeline,omitempty"`
	// MetricsEvery is the sampling interval — cycles on the cycle engine,
	// simulated time units on the event engine (default 10). A final
	// sample is always emitted when the run stops.
	MetricsEvery float64 `json:"metrics_every,omitempty"`
	// Stop bounds the run.
	Stop Stop `json:"stop,omitempty"`
}

// Stack names the protocol stack: which overlay maintains the view, which
// payload protocol runs on top of it, and how it is tuned.
type Stack struct {
	// Topology is the overlay service name (core.TopologyNames; default
	// "newscast"). ViewSize is the overlay's view size c (default 20).
	Topology string `json:"topology,omitempty"`
	ViewSize int    `json:"view_size,omitempty"`
	// Protocol selects the payload protocol (ProtocolNames): "opt" (the
	// optimizer stack, default), or one of the epidemic/topology
	// protocols — "rumor", "antientropy", "tman" — which run on the cycle
	// engine only. The solver knobs below apply to "opt" exclusively.
	Protocol string `json:"protocol,omitempty"`
	// Fanout and StopProb tune the "rumor" protocol: peers contacted per
	// cycle while hot (default 2) and the probability of losing interest
	// after contacting an informed peer (default 0.2; a pointer so an
	// explicit 0 — spreaders never lose interest — stays expressible).
	Fanout   int      `json:"fanout,omitempty"`
	StopProb *float64 `json:"stop_prob,omitempty"`
	// TManC is the "tman" protocol's view size (default 4).
	TManC int `json:"tman_c,omitempty"`
	// Solvers are solver service names (core.SolverNames; default
	// ["pso"]); more than one assigns solver types to nodes round-robin
	// by ID — the paper's module diversification.
	Solvers []string `json:"solvers,omitempty"`
	// Particles is the population size k per node (default 16).
	Particles int `json:"particles,omitempty"`
	// GossipEvery is the coordination cycle length r in local evaluations
	// (default k; negative disables coordination).
	GossipEvery int `json:"gossip_every,omitempty"`
	// Function is the objective by name (funcs registry, default
	// "Sphere"); Dim overrides its default dimension when positive.
	Function string `json:"function,omitempty"`
	Dim      int    `json:"dim,omitempty"`
	// DropProb loses each coordination exchange with this probability
	// (cycle engine only; the event engine models loss in the link).
	DropProb float64 `json:"drop_prob,omitempty"`
	// EvalTime and NewscastPeriod are event-engine timings: the mean
	// duration of one evaluation and the view-exchange period (defaults
	// 1 and 10 time units).
	EvalTime       float64 `json:"eval_time,omitempty"`
	NewscastPeriod float64 `json:"newscast_period,omitempty"`
	// Link is the event engine's initial link model. When omitted as a
	// whole, normalization sets latency uniform in [0.1, 1] and no loss;
	// a link that is given keeps its fields as written (zero included).
	Link *Link `json:"link,omitempty"`
	// Net is the cycle engine's baseline per-link network model (loss,
	// cycle-granular delay, correlated regional outages); link-model
	// events swap it mid-run and restore it when their model is omitted.
	Net *NetSpec `json:"net,omitempty"`
}

// Link describes a sim.UniformLink.
type Link struct {
	MinDelay float64 `json:"min_delay,omitempty"`
	MaxDelay float64 `json:"max_delay,omitempty"`
	LossProb float64 `json:"loss_prob,omitempty"`
}

// validate rejects delays that would move the simulation clock backwards
// and probabilities outside [0, 1]. A nil link is valid (engine default).
func (l *Link) validate() error {
	if l == nil {
		return nil
	}
	if l.MinDelay < 0 || l.MaxDelay < 0 || math.IsNaN(l.MinDelay) || math.IsNaN(l.MaxDelay) {
		return fmt.Errorf("delays must be >= 0 (min_delay=%v, max_delay=%v)", l.MinDelay, l.MaxDelay)
	}
	if l.LossProb < 0 || l.LossProb > 1 || math.IsNaN(l.LossProb) {
		return fmt.Errorf("loss_prob=%v outside [0, 1]", l.LossProb)
	}
	return nil
}

// NetSpec describes a cycle-engine per-link network model: independent
// per-leg loss and delay (sim.LossyLinks) plus correlated regional
// outages (sim.RegionalOutage), composed when both are configured. The
// zero value is a no-op (no model installed). Every random decision draws
// from the engine's dedicated net-model stream, so scripted runs stay
// byte-identical across the worker grid.
type NetSpec struct {
	// Loss is the per-leg i.i.d. loss probability in [0, 1]; lost legs
	// give the sender failure feedback, like a timed-out connection.
	Loss float64 `json:"loss,omitempty"`
	// DelayMin and DelayMax bound the per-leg uniform delay draw in whole
	// cycles (a draw of 0 delivers in the current cycle); DelayMax 0
	// disables delay.
	DelayMin int64 `json:"delay_min,omitempty"`
	DelayMax int64 `json:"delay_max,omitempty"`
	// Regions >= 2 adds correlated failures: nodes belong to regions by
	// ID mod Regions, and each cycle an up region goes down with
	// probability RegionFail while a down one recovers with
	// RegionRecover. Legs touching a down region are dropped.
	Regions       int     `json:"regions,omitempty"`
	RegionFail    float64 `json:"region_fail,omitempty"`
	RegionRecover float64 `json:"region_recover,omitempty"`
}

// validate rejects probabilities outside [0, 1], negative or inverted
// delay bounds, and outage knobs without a region count. A nil or
// all-zero NetSpec is valid (no model).
func (n *NetSpec) validate() error {
	if n == nil {
		return nil
	}
	if n.Loss < 0 || n.Loss > 1 || math.IsNaN(n.Loss) {
		return fmt.Errorf("loss=%v outside [0, 1]", n.Loss)
	}
	if n.DelayMin < 0 || n.DelayMax < 0 {
		return fmt.Errorf("delays must be >= 0 cycles (delay_min=%d, delay_max=%d)", n.DelayMin, n.DelayMax)
	}
	if n.DelayMin > n.DelayMax {
		return fmt.Errorf("delay_min=%d exceeds delay_max=%d", n.DelayMin, n.DelayMax)
	}
	if n.Regions == 1 || n.Regions < 0 {
		return fmt.Errorf("regions=%d must be >= 2 (or 0 for no regional outages)", n.Regions)
	}
	if n.RegionFail < 0 || n.RegionFail > 1 || math.IsNaN(n.RegionFail) {
		return fmt.Errorf("region_fail=%v outside [0, 1]", n.RegionFail)
	}
	if n.RegionRecover < 0 || n.RegionRecover > 1 || math.IsNaN(n.RegionRecover) {
		return fmt.Errorf("region_recover=%v outside [0, 1]", n.RegionRecover)
	}
	if n.Regions == 0 && (n.RegionFail != 0 || n.RegionRecover != 0) {
		return fmt.Errorf("region_fail/region_recover need regions >= 2")
	}
	return nil
}

// Event is one scripted timeline entry. At is a cycle index on the cycle
// engine (must be integral) and a simulated time on the event engine;
// events fire before the cycle / at the time they name.
type Event struct {
	At float64 `json:"at"`
	// Action is one of (the full vocabulary lives in actionRules):
	//
	//	crash       kill Count nodes, or Fraction of the live population
	//	join        add Count fresh nodes (cycle engine only)
	//	revive      restart up to Count crashed nodes (ID order)
	//	partition   split the network into Groups islands (ID mod Groups);
	//	            with OneWay set, cross-island traffic still flows from
	//	            lower-numbered islands to higher ones (a one-way cut)
	//	heal        remove the partition
	//	set-link    swap the link model to Link (event engine only; omit
	//	            link to restore the stack's baseline link)
	//	link-model  swap the per-link network model to Model (cycle engine
	//	            only; omit model to restore the stack's baseline net)
	//	byzantine   turn Count nodes — or Fraction of the live population —
	//	            into adversaries with the given Behavior: "drop"
	//	            (blackhole everything sent to them, no sender
	//	            feedback), "delay" (hold every leg they send back 1–3
	//	            cycles), or "corrupt" (their messages arrive as
	//	            unparseable garbage); "none" heals every adversary
	//	            (cycle engine only)
	Action   string  `json:"action"`
	Fraction float64 `json:"fraction,omitempty"`
	Count    int     `json:"count,omitempty"`
	Groups   int     `json:"groups,omitempty"`
	OneWay   bool    `json:"oneway,omitempty"`
	Link     *Link   `json:"link,omitempty"`
	// Model is the link-model event's replacement network model.
	Model *NetSpec `json:"model,omitempty"`
	// Behavior selects the byzantine event's adversarial repertoire.
	Behavior string `json:"behavior,omitempty"`
}

// Stop bounds a run. The first condition reached stops the repetition.
type Stop struct {
	// Cycles caps the cycle engine (default 200).
	Cycles int64 `json:"cycles,omitempty"`
	// Time is the event engine's horizon (default 200).
	Time float64 `json:"time,omitempty"`
	// MaxEvals caps network-wide objective evaluations (0: unlimited).
	MaxEvals int64 `json:"max_evals,omitempty"`
	// Quality, when set, stops as soon as f(best) − f(x*) reaches it.
	Quality *float64 `json:"quality,omitempty"`
}

// Engine kinds.
const (
	EngineCycle = "cycle"
	EngineEvent = "event"
)

// Parse decodes a JSON spec strictly (unknown fields are errors, catching
// typos in hand-written scenario files) and normalizes it.
func Parse(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("parsing scenario spec: %w", err)
	}
	return s.normalized()
}

// normalized fills defaults, sorts the timeline, and validates every name
// and event against the selected engine.
func (s Spec) normalized() (Spec, error) {
	if s.Name == "" {
		return s, fmt.Errorf("scenario spec needs a name")
	}
	if s.Engine == "" {
		s.Engine = EngineCycle
	}
	if s.Engine != EngineCycle && s.Engine != EngineEvent {
		return s, fmt.Errorf("scenario %q: unknown engine %q (want %q or %q)",
			s.Name, s.Engine, EngineCycle, EngineEvent)
	}
	// Engine-mismatched knobs are rejected, not ignored — the spec layer
	// is strict everywhere else (unknown fields, per-engine actions), and
	// a silently inert stop bound is exactly the typo it would hide. Only
	// the engine's own bound is ever defaulted, so normalizing an already-
	// normalized spec (Run re-normalizes what Parse returned) is a no-op.
	if s.Engine == EngineCycle {
		if s.Stop.Time != 0 {
			return s, fmt.Errorf("scenario %q: stop.time is an event-engine bound; use stop.cycles on the cycle engine", s.Name)
		}
		if s.Stack.EvalTime != 0 || s.Stack.NewscastPeriod != 0 || s.Stack.Link != nil {
			return s, fmt.Errorf("scenario %q: stack.eval_time/newscast_period/link are event-engine knobs; the cycle engine has no clock or link model", s.Name)
		}
		if err := s.Stack.Net.validate(); err != nil {
			return s, fmt.Errorf("scenario %q: stack.net: %w", s.Name, err)
		}
		if s.MetricsEvery != math.Trunc(s.MetricsEvery) {
			return s, fmt.Errorf("scenario %q: metrics_every=%v must be a whole number of cycles on the cycle engine", s.Name, s.MetricsEvery)
		}
		if s.Stop.Cycles <= 0 {
			s.Stop.Cycles = 200
		}
	} else {
		if s.Stop.Cycles != 0 {
			return s, fmt.Errorf("scenario %q: stop.cycles is a cycle-engine bound; use stop.time on the event engine", s.Name)
		}
		if s.Stack.DropProb != 0 {
			return s, fmt.Errorf("scenario %q: stack.drop_prob is a cycle-engine knob; model loss with stack.link.loss_prob on the event engine", s.Name)
		}
		if s.Stack.Net != nil {
			return s, fmt.Errorf("scenario %q: stack.net is a cycle-engine model; use stack.link on the event engine", s.Name)
		}
		if err := s.Stack.Link.validate(); err != nil {
			return s, fmt.Errorf("scenario %q: stack.link: %w", s.Name, err)
		}
		// The one place the default link is set. Filled only when absent,
		// so normalizing twice is a no-op, and a set-link event without a
		// link always has a baseline to restore.
		if s.Stack.Link == nil {
			s.Stack.Link = &Link{MinDelay: 0.1, MaxDelay: 1}
		}
		if s.Stack.EvalTime <= 0 {
			s.Stack.EvalTime = 1
		}
		if s.Stack.NewscastPeriod <= 0 {
			s.Stack.NewscastPeriod = 10
		}
		if s.Stop.Time <= 0 {
			s.Stop.Time = 200
		}
	}
	if s.Nodes <= 0 {
		s.Nodes = 64
	}
	if s.Stack.Topology == "" {
		s.Stack.Topology = "newscast"
	}
	if s.Stack.ViewSize <= 0 {
		s.Stack.ViewSize = 20
	}

	// Payload protocol. The optimizer knobs stay empty for the epidemic
	// protocols (and are rejected when set), so re-normalizing an already-
	// normalized spec remains a no-op.
	if s.Stack.Protocol == "" {
		s.Stack.Protocol = ProtocolOpt
	}
	s.Stack.Protocol = strings.ToLower(s.Stack.Protocol)
	epidemic := s.Stack.Protocol != ProtocolOpt
	if epidemic {
		if _, ok := protocolBuilders[s.Stack.Protocol]; !ok {
			return s, fmt.Errorf("scenario %q: unknown protocol %q (available: %s)",
				s.Name, s.Stack.Protocol, strings.Join(ProtocolNames(), ", "))
		}
		if s.Engine == EngineEvent {
			return s, fmt.Errorf("scenario %q: stack.protocol %q runs on the cycle engine only", s.Name, s.Stack.Protocol)
		}
		if len(s.Stack.Solvers) != 0 || s.Stack.Particles != 0 || s.Stack.GossipEvery != 0 ||
			s.Stack.Function != "" || s.Stack.Dim != 0 {
			return s, fmt.Errorf("scenario %q: stack.solvers/particles/gossip_every/function/dim are optimizer knobs; protocol %q takes none of them", s.Name, s.Stack.Protocol)
		}
		if s.Stop.MaxEvals > 0 {
			return s, fmt.Errorf("scenario %q: stop.max_evals bounds objective evaluations; protocol %q performs none", s.Name, s.Stack.Protocol)
		}
	}
	if s.Stack.Protocol != ProtocolRumor && (s.Stack.Fanout != 0 || s.Stack.StopProb != nil) {
		return s, fmt.Errorf("scenario %q: stack.fanout/stop_prob tune the rumor protocol; protocol is %q", s.Name, s.Stack.Protocol)
	}
	if s.Stack.Protocol != ProtocolTMan && s.Stack.TManC != 0 {
		return s, fmt.Errorf("scenario %q: stack.tman_c tunes the tman protocol; protocol is %q", s.Name, s.Stack.Protocol)
	}
	if s.Stack.Protocol == ProtocolRumor || s.Stack.Protocol == ProtocolTMan {
		if s.Stack.DropProb != 0 {
			return s, fmt.Errorf("scenario %q: stack.drop_prob applies to the opt and antientropy protocols; model loss for %q with a partition instead", s.Name, s.Stack.Protocol)
		}
	}
	if s.Stack.DropProb < 0 || s.Stack.DropProb > 1 || math.IsNaN(s.Stack.DropProb) {
		return s, fmt.Errorf("scenario %q: stack.drop_prob=%v outside [0, 1]", s.Name, s.Stack.DropProb)
	}
	switch s.Stack.Protocol {
	case ProtocolRumor:
		if p := s.Stack.StopProb; p != nil && (*p < 0 || *p > 1 || math.IsNaN(*p)) {
			return s, fmt.Errorf("scenario %q: stack.stop_prob=%v outside [0, 1]", s.Name, *p)
		}
		if s.Stack.Fanout <= 0 {
			s.Stack.Fanout = 2
		}
		if s.Stack.StopProb == nil {
			p := 0.2
			s.Stack.StopProb = &p
		}
	case ProtocolTMan:
		if s.Stack.TManC <= 0 {
			s.Stack.TManC = 4
		}
	}

	if !epidemic {
		if len(s.Stack.Solvers) == 0 {
			s.Stack.Solvers = []string{"pso"}
		}
		if s.Stack.Particles <= 0 {
			s.Stack.Particles = 16
		}
		if s.Stack.GossipEvery == 0 {
			s.Stack.GossipEvery = s.Stack.Particles
		}
		if s.Stack.Function == "" {
			s.Stack.Function = "Sphere"
		}
	}
	if s.MetricsEvery <= 0 {
		s.MetricsEvery = 10
	}

	// Resolve every name now so a bad spec fails before any run starts.
	if !epidemic {
		if _, err := funcs.ByName(s.Stack.Function); err != nil {
			return s, fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		if _, err := core.SolversByName(s.Stack.Solvers, s.Stack.Particles); err != nil {
			return s, fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}
	if _, err := core.TopologyByName(s.Stack.Topology); err != nil {
		return s, fmt.Errorf("scenario %q: %w", s.Name, err)
	}

	// Sort a copy: normalized() must not reorder the caller's Timeline
	// backing array as a side effect (specs are plain values callers may
	// reuse, marshal, or share).
	s.Timeline = append([]Event(nil), s.Timeline...)
	sort.SliceStable(s.Timeline, func(i, j int) bool { return s.Timeline[i].At < s.Timeline[j].At })
	for i, ev := range s.Timeline {
		if err := s.validateEvent(ev); err != nil {
			return s, fmt.Errorf("scenario %q: timeline[%d]: %w", s.Name, i, err)
		}
	}
	return s, nil
}

// actionRules is the single timeline-action registry: every action's
// per-event validator, keyed by action name. validateEvent dispatches
// through it and the unknown-action error enumerates its keys, so adding
// an action here automatically extends both validation and the error's
// vocabulary — the two can never drift apart.
var actionRules = map[string]func(s *Spec, ev Event) error{
	"crash": func(s *Spec, ev Event) error {
		if ev.Count <= 0 && (ev.Fraction <= 0 || ev.Fraction > 1) {
			return fmt.Errorf("crash needs count > 0 or fraction in (0, 1]")
		}
		return nil
	},
	"revive": func(s *Spec, ev Event) error {
		if ev.Count <= 0 {
			return fmt.Errorf("revive needs count > 0")
		}
		return nil
	},
	"join": func(s *Spec, ev Event) error {
		if s.Engine == EngineEvent {
			return fmt.Errorf("join is not supported on the event engine")
		}
		if s.Stack.Protocol == ProtocolTMan {
			return fmt.Errorf("join is not supported with the tman protocol (the target ring is defined over the initial population)")
		}
		if ev.Count <= 0 {
			return fmt.Errorf("join needs count > 0")
		}
		return nil
	},
	"partition": func(s *Spec, ev Event) error {
		if ev.Groups < 2 {
			return fmt.Errorf("partition needs groups >= 2")
		}
		return nil
	},
	"heal": func(s *Spec, ev Event) error { return nil },
	"set-link": func(s *Spec, ev Event) error {
		if s.Engine != EngineEvent {
			return fmt.Errorf("set-link is only supported on the event engine")
		}
		if err := ev.Link.validate(); err != nil {
			return fmt.Errorf("set-link: %w", err)
		}
		return nil
	},
	"link-model": func(s *Spec, ev Event) error {
		if s.Engine != EngineCycle {
			return fmt.Errorf("link-model is only supported on the cycle engine")
		}
		if err := ev.Model.validate(); err != nil {
			return fmt.Errorf("link-model: %w", err)
		}
		return nil
	},
	"byzantine": func(s *Spec, ev Event) error {
		if s.Engine != EngineCycle {
			return fmt.Errorf("byzantine is only supported on the cycle engine")
		}
		switch ev.Behavior {
		case "drop", "delay", "corrupt":
			if ev.Count <= 0 && (ev.Fraction <= 0 || ev.Fraction > 1) {
				return fmt.Errorf("byzantine needs count > 0 or fraction in (0, 1]")
			}
		case "none":
			if ev.Count != 0 || ev.Fraction != 0 {
				return fmt.Errorf(`byzantine behavior "none" heals every adversary and takes no count/fraction`)
			}
		case "":
			return fmt.Errorf("byzantine needs a behavior (drop, delay, corrupt, or none)")
		default:
			return fmt.Errorf("unknown byzantine behavior %q (want drop, delay, corrupt, or none)", ev.Behavior)
		}
		return nil
	},
}

// ActionNames returns the sorted timeline-action vocabulary.
func ActionNames() []string {
	out := make([]string, 0, len(actionRules))
	for name := range actionRules {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func (s Spec) validateEvent(ev Event) error {
	if ev.At < 0 || math.IsNaN(ev.At) || math.IsInf(ev.At, 0) {
		return fmt.Errorf("at=%v out of range", ev.At)
	}
	// An event past the stop bound can never fire; reject the likely typo
	// rather than silently running a different experiment. (A run may
	// still stop earlier via quality/max_evals — that's data-dependent,
	// unlike a bound the spec itself guarantees is never reached.)
	if s.Engine == EngineCycle {
		if ev.At != math.Trunc(ev.At) {
			return fmt.Errorf("at=%v must be a whole cycle on the cycle engine", ev.At)
		}
		if ev.At >= float64(s.Stop.Cycles) {
			return fmt.Errorf("at=%v never fires: the run stops after cycle %d", ev.At, s.Stop.Cycles)
		}
	} else if ev.At > s.Stop.Time {
		return fmt.Errorf("at=%v never fires: the run stops at time %v", ev.At, s.Stop.Time)
	}
	if ev.OneWay && ev.Action != "partition" {
		return fmt.Errorf("oneway applies to partition events only")
	}
	if ev.Model != nil && ev.Action != "link-model" {
		return fmt.Errorf("model applies to link-model events only")
	}
	if ev.Behavior != "" && ev.Action != "byzantine" {
		return fmt.Errorf("behavior applies to byzantine events only")
	}
	rule, ok := actionRules[ev.Action]
	if !ok {
		return fmt.Errorf("unknown action %q (available: %s)", ev.Action, strings.Join(ActionNames(), ", "))
	}
	return rule(&s, ev)
}
