// Package sim is a discrete simulator for large P2P networks, equivalent in
// role to PeerSim, which the paper used for its evaluation. It offers two
// execution models:
//
//   - a cycle-driven engine (Engine): in each cycle every live node's
//     protocols are stepped once, like PeerSim's CDSimulator but with a
//     two-phase exchange model (see exchange.go) that shards both the
//     propose and the apply work across a persistent pool of worker
//     goroutines while keeping every trace bit-identical to a
//     single-threaded run. This is what the paper's experiments use.
//   - an event-driven engine (EventEngine, see events.go): a time-ordered
//     event heap with configurable link latency and message loss, for
//     experiments where asynchrony matters. It runs the same protocol
//     stacks through the same contracts: a periodic timer per protocol
//     slot calls Propose, and every message leg is delivered (or bounced
//     back to its sender) at its own arrival time.
//
// Determinism: given the same seed, node count and protocol stack, a run
// produces the identical trace — for any propose-worker and apply-worker
// count, 1×1 included. Each node owns a split RNG stream so that adding
// observers or reordering unrelated code does not perturb results, and so
// that stepping nodes on parallel workers neither races nor changes the
// per-node draw sequence.
package sim

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"gossipopt/internal/rng"
)

// NodeID identifies a simulated node. IDs are never reused within a run,
// so a crashed node's ID never refers to a different live node later.
type NodeID int64

// Protocol is one layer of a node's protocol stack, on either engine. An
// implementation provides the two-phase exchange contract of exchange.go: Proposer (node-local work on parallel propose workers) and
// usually Receiver/Undeliverable (node-local delivery handling on parallel
// apply workers). The historical sequential CycleStepper contract is gone:
// every message of every protocol flows through the mailbox, so delivery
// filters (partitions) and the Delivered/Dropped counters apply uniformly,
// and no phase of a cycle is serial.
//
// Protocol is intentionally untyped (a slot may hold a passive service
// that other protocols query, e.g. a static topology), so a drifted method
// signature compiles and the engine silently skips the protocol. Guard
// against that with a compile-time assertion next to every implementation,
// as the bundled protocols do:
//
//	var _ sim.Proposer = (*MyProto)(nil)
type Protocol interface{}

// Node is one simulated peer. Protocol state lives in the Protocols slice;
// slot indices are assigned by the experiment setup and shared across all
// nodes (slot 0 might be the topology service, slot 1 the optimizer, ...).
// Nodes live in the engine's dense arena; a *Node stays valid for the
// engine's lifetime.
type Node struct {
	ID    NodeID
	Alive bool
	// RNG is the node's private random stream.
	RNG *rng.RNG
	// Protocols holds one instance per protocol slot.
	Protocols []Protocol
}

// Protocol returns the protocol instance in the given slot.
func (n *Node) Protocol(slot int) Protocol { return n.Protocols[slot] }

// Engine is the cycle-driven simulation engine.
type Engine struct {
	rng *rng.RNG
	// arena stores every node, densely indexed by NodeID (IDs are
	// monotonic and never reused), replacing the historical
	// map[NodeID]*Node + ID-order slice double bookkeeping.
	arena nodeArena
	cycle int64

	// liveIdx is the maintained live index: every live node, in ID order.
	// Crash/Revive only mark it dirty; ensureLive rebuilds it lazily with
	// one arena scan, into the spare buffer so an iteration over the
	// previous index (ForEachLive callbacks that crash nodes) survives the
	// rebuild. Steady-state cycles touch it read-only, so the live
	// snapshot, LiveNodes, ForEachLive and RandomLiveNode cost no per-call
	// allocation and no map walk.
	liveIdx   []*Node
	liveSpare []*Node
	liveDirty bool

	// live is the maintained count of live nodes (kept by AddNode, Crash
	// and Revive so LiveCount is O(1); churn models call it per node).
	live int
	// evals is the maintained count of objective evaluations, fed by
	// Proposals.CountEvals and ApplyContext.CountEvals at each phase
	// barrier so budget checks are O(1) instead of an O(n) scan per cycle.
	evals int64

	// workers is the propose-phase parallelism; applyWorkers, when
	// positive, overrides it for the apply phase (see SetWorkers /
	// SetApplyWorkers).
	workers      int
	applyWorkers int

	// pool is the persistent worker pool both phases run on; it grows to
	// the largest parallelism requested and never spawns goroutines in the
	// per-cycle steady state.
	pool *workerPool

	// churn, when non-nil, is applied at the start of every cycle.
	churn ChurnModel
	// makeNode builds the protocol stack for a (re)joining node.
	makeNode func(n *Node)

	// filter, when non-nil, gates message delivery (network partitions).
	filter DeliveryFilter
	// netmod, when non-nil, judges every deliverable leg (loss, delay,
	// corruption, Byzantine behaviors; see netmodel.go); netRNG is its
	// dedicated stream, split lazily from the engine RNG on the first
	// SetNetModel so model-free runs keep their historical traces.
	netmod NetModel
	netRNG *rng.RNG
	// delayQ holds delayed legs until their release cycle; each re-enters
	// the canonical list of the cycle it is released into.
	delayQ []delayedMsg
	// delivered/dropped count apply-phase deliveries and messages lost to
	// dead destinations or the delivery filter, reply legs included;
	// delayed/corrupted count the net model's delay and corruption
	// verdicts (a corrupted leg also counts as dropped, a delayed one as
	// delivered or dropped at its actual delivery).
	delivered, dropped int64
	delayed, corrupted int64

	// observers run after every cycle.
	observers []Observer

	// scratch buffers reused across cycles.
	msgScratch    []Message
	outScratch    []Proposals
	applyCtxs     []ApplyContext
	jobScratch    []applyJob
	followScratch []followUp
	// rounds keeps one buffer per apply round, all retained until
	// releaseApplyScratch so each cycle's payloads can be recycled exactly
	// once: a payload lives either in msgScratch (proposed this cycle) or
	// in exactly one round buffer (posted as a follow-up).
	rounds [][]Message

	// Batched-dispatch scratch (see shardRound): the routed jobs stay in
	// jobScratch in canonical order; jobOrder is a permutation of job
	// indices grouped worker-major and node-contiguous, batchScratch holds
	// one per-node batch descriptor per distinct handling node, and
	// batchSpans/batchCursor delimit each worker's run of batches. Workers
	// receive slice views into these engine-owned buffers, so a round's
	// dispatch allocates nothing in the steady state.
	jobOrder     []int32
	batchScratch []applyBatch
	batchSpans   []int32
	batchCursor  []int32

	// Balanced-sharding scratch (see shardRound): per-node message counts
	// and worker assignments, dense by NodeID, reset via the touched list
	// so a round costs O(messages + distinct nodes), not O(population).
	nodeMsgs   []int32
	nodeWorker []int32
	touched    []*Node
	loads      []int
	// idModSharding restores the historical ID-mod shard assignment; a
	// test/benchmark hook proving balanced sharding changes throughput
	// only, never the trace.
	idModSharding bool

	// Instrumentation accumulators (see stats.go). All are plain
	// coordinator-owned fields mutated on the hot path without atomics;
	// publishStats copies them into the race-safe snapshot once per
	// cycle.
	proposeNanos, applyNanos int64
	applyRounds, applyJobs   int64
	applyBatches             int64
	payloadsRecycled         int64
	shardedRounds            int64
	shardMinSum, shardMaxSum int64
	shardMeanSum             float64
	liveRebuilds             int64
	// stats is the atomic snapshot behind Engine.Stats.
	stats engineStats
}

// delayedMsg is one leg held back by a FateDelay verdict: the message,
// carrying its payload, and the cycle whose apply phase re-admits it.
type delayedMsg struct {
	release int64
	msg     Message
}

// applyJob is one routed message of an apply round: the node that must
// handle it (the destination when deliverable, the sender otherwise) plus
// the message's canonical index, which orders handler calls per node and
// tags follow-ups.
type applyJob struct {
	idx     int
	deliver bool
	node    *Node
	msg     Message
}

// applyBatch is one contiguous run of a single node's routed jobs inside
// an apply round: jobOrder[lo:hi] indexes the node's jobs in canonical
// order. A worker processes whole batches, so per-node setup (the
// ApplyContext's self field, the node's protocol table) is paid once per
// batch rather than once per message.
type applyBatch struct {
	node   *Node
	lo, hi int32
}

// Observer inspects the network after each cycle; returning false stops the
// simulation (used for threshold-based termination, e.g. the paper's
// fourth experiment).
type Observer func(e *Engine) bool

// NewEngine creates an empty engine with a deterministic RNG stream.
func NewEngine(seed uint64) *Engine {
	return &Engine{
		rng:     rng.New(seed),
		workers: 1,
		pool:    newWorkerPool(),
	}
}

// Close releases the engine's worker pool. Optional: a dropped engine's
// pool is reclaimed by a finalizer backstop, but callers that build many
// engines (campaign runners) close deterministically. The engine must not
// run again after Close.
func (e *Engine) Close() { e.pool.shutdown() }

// RNG exposes the engine's private random stream (for setup code).
func (e *Engine) RNG() *rng.RNG { return e.rng }

// Cycle returns the number of completed cycles.
func (e *Engine) Cycle() int64 { return e.cycle }

// SetChurn installs a churn model applied at the start of each cycle.
func (e *Engine) SetChurn(c ChurnModel) { e.churn = c }

// SetDeliveryFilter installs (or, with nil, removes) the delivery filter
// consulted for every apply-phase message — the partition/heal hook for
// scripted scenarios. Every leg of an exchange is judged on its own,
// replies included, so a directional filter (SplitGroupsOneWay) models a
// one-way cut. Blocked messages take the same undeliverable path as
// messages to dead nodes: the sender's Undeliverable hook fires.
func (e *Engine) SetDeliveryFilter(f DeliveryFilter) { e.filter = f }

// SetNetModel installs (or, with nil, removes) the per-link network model
// judging every deliverable leg after the delivery filter (see
// netmodel.go for the fates and the determinism argument). The first
// installation splits a dedicated RNG stream off the engine RNG — one
// engine-stream draw, made exactly once per engine and only for runs that
// ever install a model, so model-free traces are bit-identical to
// historical ones. Swapping models mid-run keeps the stream: a scripted
// model change is itself deterministic.
func (e *Engine) SetNetModel(m NetModel) {
	e.netmod = m
	if m != nil && e.netRNG == nil {
		e.netRNG = e.rng.Split()
	}
}

// NetModelInstalled reports whether a net model is currently judging legs.
func (e *Engine) NetModelInstalled() bool { return e.netmod != nil }

// Delivered returns the count of apply-phase messages delivered to a live,
// reachable destination (reply legs included). Coordinator-side accessor:
// like every counter it is also folded into the Stats snapshot, which is
// what concurrent readers must use.
func (e *Engine) Delivered() int64 { return e.delivered }

// Dropped returns the count of apply-phase messages lost to a dead
// destination, to the delivery filter (partitions), or to a net-model
// drop/blackhole/corrupt verdict, reply legs included. Coordinator-side
// accessor; concurrent readers use Stats.
func (e *Engine) Dropped() int64 { return e.dropped }

// Delayed returns the count of legs the net model held back for later
// cycles. Coordinator-side accessor; concurrent readers use Stats.
func (e *Engine) Delayed() int64 { return e.delayed }

// Corrupted returns the count of legs the net model garbled (each also
// counted in Dropped). Coordinator-side accessor; concurrent readers use
// Stats.
func (e *Engine) Corrupted() int64 { return e.corrupted }

// SetWorkers sets the number of pool workers stepping nodes during the
// propose phase (values < 1 mean 1) — and, unless SetApplyWorkers has
// overridden it, the apply-phase parallelism too. The trace is
// bit-identical for every worker count; workers only change wall-clock
// speed.
func (e *Engine) SetWorkers(w int) {
	if w < 1 {
		w = 1
	}
	e.workers = w
}

// Workers returns the configured propose-phase parallelism.
func (e *Engine) Workers() int { return e.workers }

// SetApplyWorkers overrides the apply-phase parallelism independently of
// the propose phase (values < 1 mean 1). Until it is called, the apply
// phase follows SetWorkers. Traces are bit-identical for every
// (propose workers × apply workers) combination.
func (e *Engine) SetApplyWorkers(w int) {
	if w < 1 {
		w = 1
	}
	e.applyWorkers = w
}

// ApplyWorkers returns the effective apply-phase parallelism.
func (e *Engine) ApplyWorkers() int {
	if e.applyWorkers > 0 {
		return e.applyWorkers
	}
	return e.workers
}

// Evals returns the engine-maintained count of objective evaluations
// (reported by protocols through Proposals.CountEvals or
// ApplyContext.CountEvals). Evaluations of since-crashed nodes remain
// counted. O(1).
func (e *Engine) Evals() int64 { return e.evals }

// CountEvals adds k evaluations to the engine counter. Setup code may call
// it directly; phase code must use Proposals.CountEvals or
// ApplyContext.CountEvals instead.
func (e *Engine) CountEvals(k int64) { e.evals += k }

// SetNodeFactory installs the function used to populate the protocol stack
// of nodes created by AddNode or by churn-driven joins.
func (e *Engine) SetNodeFactory(f func(n *Node)) { e.makeNode = f }

// AddObserver registers a per-cycle observer.
func (e *Engine) AddObserver(o Observer) { e.observers = append(e.observers, o) }

// AddNode creates a new live node, populates its protocol stack via the
// node factory (if set) and returns it. The node turns live only after the
// factory ran, so factory code (bootstrap peer sampling) observes the
// population without it — exactly as when nodes were registered after the
// factory in the map era.
func (e *Engine) AddNode() *Node {
	n := e.arena.alloc()
	n.RNG = e.rng.Split()
	if e.makeNode != nil {
		e.makeNode(n)
	}
	n.Alive = true
	e.live++
	if !e.liveDirty {
		// New IDs are strictly increasing, so appending keeps the live
		// index sorted; a dirty index is rebuilt from the arena on next
		// use and picks the node up then.
		e.liveIdx = append(e.liveIdx, n)
	}
	return n
}

// AddNodes creates count nodes and returns them.
func (e *Engine) AddNodes(count int) []*Node {
	out := make([]*Node, count)
	for i := range out {
		out[i] = e.AddNode()
	}
	return out
}

// Node returns the node with the given ID, or nil if it does not exist.
func (e *Engine) Node(id NodeID) *Node { return e.arena.at(id) }

// Crash marks the node as dead. Dead nodes are not stepped and are skipped
// by RandomLiveNode. The node's state is retained so that rejoin semantics
// can be modelled by the caller if desired.
func (e *Engine) Crash(id NodeID) {
	if n := e.arena.at(id); n != nil && n.Alive {
		n.Alive = false
		e.live--
		e.liveDirty = true
	}
}

// Revive marks a crashed node as live again.
func (e *Engine) Revive(id NodeID) {
	if n := e.arena.at(id); n != nil && !n.Alive {
		n.Alive = true
		e.live++
		e.liveDirty = true
	}
}

// LiveCount returns the number of live nodes. O(1): the count is
// maintained by AddNode/Crash/Revive, so per-node churn checks do not turn
// a cycle quadratic.
func (e *Engine) LiveCount() int { return e.live }

// Size returns the total number of nodes ever created and not removed.
func (e *Engine) Size() int { return e.arena.len() }

// ensureLive rebuilds the live index if Crash/Revive invalidated it. The
// rebuild scans the arena once, into the spare buffer (swapped with the
// old index) so an in-flight iteration over the previous index is not
// clobbered by one nested rebuild.
func (e *Engine) ensureLive() {
	if !e.liveDirty {
		return
	}
	e.liveRebuilds++
	idx := e.liveSpare[:0]
	for ci := range e.arena.chunks {
		c := e.arena.chunks[ci]
		for i := range c {
			if c[i].Alive {
				idx = append(idx, &c[i])
			}
		}
	}
	e.liveSpare = e.liveIdx
	e.liveIdx = idx
	e.liveDirty = false
}

// AllNodes returns every node ever created, dead or alive, in ID order.
// It allocates a fresh slice; hot paths use AppendAllNodes.
func (e *Engine) AllNodes() []*Node {
	return e.AppendAllNodes(make([]*Node, 0, e.arena.len()))
}

// AppendAllNodes appends every node, dead or alive, in ID order onto buf
// and returns the extended slice — the allocation-free variant of AllNodes
// for callers that keep a scratch buffer across cycles.
func (e *Engine) AppendAllNodes(buf []*Node) []*Node {
	for ci := range e.arena.chunks {
		c := e.arena.chunks[ci]
		for i := range c {
			buf = append(buf, &c[i])
		}
	}
	return buf
}

// LiveNodes returns all live nodes in ID order (deterministic). It
// allocates a fresh slice; hot paths use AppendLiveNodes.
func (e *Engine) LiveNodes() []*Node {
	e.ensureLive()
	return append(make([]*Node, 0, len(e.liveIdx)), e.liveIdx...)
}

// AppendLiveNodes appends all live nodes in ID order onto buf and returns
// the extended slice — the allocation-free variant of LiveNodes for
// callers that keep a scratch buffer across cycles (churn models, scenario
// event sampling).
func (e *Engine) AppendLiveNodes(buf []*Node) []*Node {
	e.ensureLive()
	return append(buf, e.liveIdx...)
}

// ForEachLive calls f for every live node in ID order. Liveness is
// re-checked at visit time, so a callback crashing a later node keeps that
// node from being visited.
func (e *Engine) ForEachLive(f func(n *Node)) {
	e.ensureLive()
	idx := e.liveIdx
	for _, n := range idx {
		if n.Alive {
			f(n)
		}
	}
}

// RandomLiveNode returns a uniformly random live node different from
// exclude (pass -1 to allow any). Returns nil if no eligible node exists.
// This is the simulator-level oracle; protocols that must be realistic use
// the peer-sampling service instead.
//
// The draw consumes exactly one engine-RNG value with the same modulus as
// the historical build-a-candidate-slice implementation — the excluded
// node's index is located by binary search and skipped arithmetically — so
// traces are unchanged while the call allocates nothing.
func (e *Engine) RandomLiveNode(exclude NodeID) *Node {
	e.ensureLive()
	idx := e.liveIdx
	m := len(idx)
	pos := m // sentinel: nothing to skip
	if exclude >= 0 {
		if i, found := slices.BinarySearchFunc(idx, exclude,
			func(n *Node, id NodeID) int { return cmp.Compare(n.ID, id) }); found {
			pos = i
			m--
		}
	}
	if m == 0 {
		return nil
	}
	k := e.rng.Intn(m)
	if k >= pos {
		k++
	}
	return idx[k]
}

// RunCycle executes one cycle of the two-phase exchange model: churn, the
// parallel propose phase, the destination-sharded parallel apply phase,
// then observers. It reports false if any observer requested termination.
// See exchange.go for the model's contracts and the determinism argument.
func (e *Engine) RunCycle() bool {
	if e.churn != nil {
		e.churn.Apply(e)
	}
	// Stateful net models (RegionalOutage's Markov chains) advance once
	// per cycle, on the coordinator, from the model's dedicated stream.
	if t, ok := e.netmod.(NetTicker); ok {
		t.Tick(e.cycle, e.netRNG)
	}

	// Snapshot the live population: churn is done for this cycle and
	// handlers cannot crash nodes, so liveness is frozen through both
	// phases (which is also what makes ApplyContext.Alive safe to call
	// from concurrent apply workers) and the maintained live index IS the
	// snapshot — no per-cycle copy.
	e.ensureLive()
	live := e.liveIdx

	// Phase 1: parallel propose over contiguous shards. Each worker owns
	// its shard's nodes and a private outbox; concatenating the outboxes
	// in shard order yields the messages in sender-ID order no matter how
	// many workers ran.
	//simcheck:allow determinism phase timing feeds Stats only, never the trace
	phaseStart := time.Now()
	workers := e.workers
	if workers > len(live) {
		workers = len(live)
	}
	if workers < 1 {
		workers = 1
	}
	if cap(e.outScratch) < workers {
		e.outScratch = make([]Proposals, workers)
	}
	outs := e.outScratch[:workers]
	for w := range outs {
		outs[w].msgs = outs[w].msgs[:0]
		outs[w].evals = 0
	}
	e.pool.run(workers, func(w int) {
		px := &outs[w]
		px.cycle = e.cycle
		lo, hi := w*len(live)/workers, (w+1)*len(live)/workers
		for _, n := range live[lo:hi] {
			px.begin(n.ID)
			for _, p := range n.Protocols {
				if pr, ok := p.(Proposer); ok {
					pr.Propose(n, px)
				}
			}
		}
	})
	for w := range outs {
		e.evals += outs[w].evals
	}
	//simcheck:allow determinism phase timing feeds Stats only, never the trace
	now := time.Now()
	e.proposeNanos += now.Sub(phaseStart).Nanoseconds()
	phaseStart = now

	// Phase 2: deterministic parallel apply. Move the outbox messages into
	// the canonical list, shuffle into the cycle's canonical delivery
	// order with the engine RNG, then deliver in destination-sharded
	// rounds until no handler posts a follow-up. Every round's buffer is
	// retained so payload references die — and recyclable payloads return
	// to their free lists — in one place, releaseApplyScratch, once the
	// rounds are done.
	msgs := e.msgScratch[:0]
	for w := range outs {
		msgs = append(msgs, outs[w].msgs...)
	}
	// Released delayed legs join before the canonical shuffle, so their
	// position in this cycle's delivery order is as seed-determined as
	// everyone else's. The queue compacts in place; vacated tail slots are
	// cleared so a released payload is pinned by nothing but the canonical
	// list that now owns (and will recycle) it.
	if len(e.delayQ) > 0 {
		q := e.delayQ[:0]
		for _, d := range e.delayQ {
			if d.release <= e.cycle {
				msgs = append(msgs, d.msg)
			} else {
				q = append(q, d)
			}
		}
		clear(e.delayQ[len(q):])
		e.delayQ = q
	}
	e.msgScratch = msgs
	e.rng.Shuffle(len(msgs), func(i, j int) { msgs[i], msgs[j] = msgs[j], msgs[i] })
	depth := 0
	for round := msgs; len(round) > 0; depth++ {
		follows := e.applyRound(round)
		if depth == len(e.rounds) {
			e.rounds = append(e.rounds, nil)
		}
		next := e.rounds[depth][:0]
		for _, f := range follows {
			next = append(next, f.msg)
		}
		e.rounds[depth] = next
		round = next
	}
	e.releaseApplyScratch(outs, depth)
	//simcheck:allow determinism phase timing feeds Stats only, never the trace
	e.applyNanos += time.Since(phaseStart).Nanoseconds()

	e.cycle++
	cont := true
	for _, o := range e.observers {
		if !o(e) {
			cont = false
		}
	}
	e.publishStats()
	return cont
}

// route classifies one canonical message on the coordinator: delivered to
// the destination's Receiver when the destination is alive and reachable,
// otherwise bounced to the sender's Undeliverable hook (the failure
// feedback a real initiator would get from a timed-out connection), moving
// the Delivered/Dropped counters deterministically. The delivery filter is
// consulted here, at delivery time, so a partition installed mid-run also
// blocks messages proposed earlier in the same cycle; the net model (when
// installed) judges what the filter let through. slot points into the
// round buffer — route owns that slot's Data: a delayed leg moves the
// payload into the delay queue and nils the slot so end-of-cycle recycling
// skips it, and a corrupted leg dispatches a Corrupted copy while the slot
// keeps the original for recycling. The returned message is the one to
// dispatch; a nil node means no handler fires at all (no sender exists, a
// blackhole swallowed the leg, or the leg was delayed).
func (e *Engine) route(slot *Message) (*Node, Message, bool) {
	m := *slot
	dst := e.arena.at(m.To)
	if dst == nil || !dst.Alive || e.filter.blocked(m.From, m.To) {
		e.dropped++
		return e.arena.at(m.From), m, false
	}
	if e.netmod != nil && m.From != m.To && !m.redelivered {
		switch v := e.netmod.Judge(m.From, m.To, e.netRNG); v.Fate {
		case FateDrop:
			e.dropped++
			return e.arena.at(m.From), m, false
		case FateBlackhole:
			e.dropped++
			return nil, m, false
		case FateDelay:
			d := v.Delay
			if d < 1 {
				d = 1
			}
			e.delayed++
			m.redelivered = true
			e.delayQ = append(e.delayQ, delayedMsg{release: e.cycle + d, msg: m})
			slot.Data = nil
			return nil, m, false
		case FateCorrupt:
			e.corrupted++
			e.dropped++
			m.Data = Corrupted{}
			return dst, m, true
		}
	}
	e.delivered++
	return dst, m, true
}

// dispatch invokes the handling node's protocol for one routed message.
func dispatch(n *Node, ax *ApplyContext, m Message, idx int, deliver bool) {
	if m.Slot >= len(n.Protocols) {
		return
	}
	ax.self = n.ID
	ax.trigger = idx
	if deliver {
		if r, ok := n.Protocols[m.Slot].(Receiver); ok {
			r.Receive(n, ax, m)
		}
	} else if u, ok := n.Protocols[m.Slot].(Undeliverable); ok {
		u.Undelivered(n, ax, m)
	}
}

// applyRound delivers one round of messages and returns the follow-ups
// posted by its handlers, in canonical (trigger index, emission) order.
//
// The coordinator classifies every message in canonical order (see route),
// then shards the routed jobs by handling node across the apply workers:
// all of one node's messages land on one worker in canonical order, so
// per-node handler order — the only order a node-local handler can observe
// — is independent of both the worker count and the node→worker
// assignment. That freedom is what makes the assignment a pure scheduling
// decision: jobs are bin-packed onto workers by per-node message count
// (greedy least-loaded, in first-appearance order), so a hotspot node's
// message pile no longer drags the ~1/workers of the population that
// shared its ID residue onto the same worker, as the historical ID-mod
// assignment did.
func (e *Engine) applyRound(round []Message) []followUp {
	workers := e.ApplyWorkers()
	if workers > len(round) {
		workers = len(round)
	}
	if workers < 1 {
		workers = 1
	}
	if cap(e.applyCtxs) < workers {
		e.applyCtxs = make([]ApplyContext, workers)
	}
	ctxs := e.applyCtxs[:workers]

	e.applyRounds++
	if workers == 1 {
		// Single-worker fast path: classify and handle in one fused pass
		// on the coordinator. Handlers cannot observe the counters or
		// liveness changes mid-phase, so fusing is trace-identical to the
		// classify-then-handle split and skips materializing jobs.
		ax := &ctxs[0]
		ax.reset(e, e.cycle)
		for i := range round {
			if n, m, deliver := e.route(&round[i]); n != nil {
				e.applyJobs++
				dispatch(n, ax, m, i, deliver)
			}
		}
	} else {
		e.shardRound(round, workers)
		jobs, order := e.jobScratch, e.jobOrder
		batches, spans := e.batchScratch, e.batchSpans[:workers+1]
		// Per-round shard-load spread (min/mean/max worker load),
		// accumulated before the workers run: a skewed assignment —
		// idmod under hotspot traffic — shows up directly as
		// max >> mean in the Stats snapshot.
		loads := e.loads[:workers]
		minLoad, maxLoad, total := loads[0], loads[0], 0
		for _, l := range loads {
			total += l
			if l < minLoad {
				minLoad = l
			}
			if l > maxLoad {
				maxLoad = l
			}
		}
		e.applyJobs += int64(total)
		e.applyBatches += int64(len(batches))
		e.shardedRounds++
		e.shardMinSum += int64(minLoad)
		e.shardMaxSum += int64(maxLoad)
		e.shardMeanSum += float64(total) / float64(workers)
		e.pool.run(workers, func(w int) {
			ax := &ctxs[w]
			ax.reset(e, e.cycle)
			// Batched dispatch: one batch per (node, round), its jobs in
			// canonical order. Per-node setup — the context's sender
			// identity, the protocol table — is hoisted out of the
			// per-message loop.
			for _, b := range batches[spans[w]:spans[w+1]] {
				n := b.node
				ax.self = n.ID
				protos := n.Protocols
				for _, k := range order[b.lo:b.hi] {
					j := &jobs[k]
					if j.msg.Slot >= len(protos) {
						continue
					}
					ax.trigger = j.idx
					if j.deliver {
						if r, ok := protos[j.msg.Slot].(Receiver); ok {
							r.Receive(n, ax, j.msg)
						}
					} else if u, ok := protos[j.msg.Slot].(Undeliverable); ok {
						u.Undelivered(n, ax, j.msg)
					}
				}
			}
		})
	}

	// Round barrier: aggregate per-worker eval counts and restore the
	// sequential follow-up order. Triggers (canonical indices) are unique
	// per routed message and each message's follow-ups are emitted
	// contiguously into one worker's outbox, so a stable sort by trigger
	// across the concatenation reconstructs exactly the order a single
	// sequential pass would have produced — even though batching means a
	// worker's outbox is no longer globally trigger-sorted.
	follows := e.followScratch[:0]
	for w := range ctxs {
		e.evals += ctxs[w].evals
		follows = append(follows, ctxs[w].outbox...)
	}
	slices.SortStableFunc(follows, func(a, b followUp) int { return cmp.Compare(a.trigger, b.trigger) })
	e.followScratch = follows
	return follows
}

// shardRound classifies a round's messages and lays the routed jobs out as
// per-node batches grouped by worker. Everything runs on the coordinator,
// so the assignment is deterministic by construction — and because
// per-node handler order is the only observable, any assignment yields the
// same trace (the idModSharding hook and the invariance tests pin that
// down).
//
// The layout is a two-level counting sort over engine-owned scratch, with
// no per-job copying of Message values: jobs stay in jobScratch in
// canonical order; jobOrder holds job indices permuted worker-major and
// node-contiguous (each node's run in canonical order); batchScratch holds
// one applyBatch per distinct node, in first-appearance order within each
// worker's batchSpans window. Total cost is O(messages + distinct nodes +
// workers) per round, and every buffer is reused across rounds and cycles.
func (e *Engine) shardRound(round []Message, workers int) {
	if n := e.arena.len(); len(e.nodeMsgs) < n {
		e.nodeMsgs = make([]int32, n)
		e.nodeWorker = make([]int32, n)
	}

	// Classification pass, in canonical order: route each message and
	// count messages per handling node (first-appearance order recorded in
	// touched; nodeMsgs entries are reset via touched below, keeping the
	// pass O(messages), not O(population)).
	jobs := e.jobScratch[:0]
	touched := e.touched[:0]
	for i := range round {
		n, m, deliver := e.route(&round[i])
		if n == nil {
			continue
		}
		jobs = append(jobs, applyJob{idx: i, deliver: deliver, node: n, msg: m})
		if e.nodeMsgs[n.ID] == 0 {
			touched = append(touched, n)
		}
		e.nodeMsgs[n.ID]++
	}
	e.jobScratch = jobs
	e.touched = touched

	// Worker assignment, per distinct node, weighted by its message count.
	// loads doubles as the per-worker job totals the round's shard-load
	// stats read back in applyRound.
	if cap(e.loads) < workers {
		e.loads = make([]int, workers)
	}
	loads := e.loads[:workers]
	clear(loads)
	if e.idModSharding {
		for _, n := range touched {
			w := int32(uint64(n.ID) % uint64(workers))
			e.nodeWorker[n.ID] = w
			loads[w] += int(e.nodeMsgs[n.ID])
		}
	} else {
		// Greedy bin-pack: assign each distinct node, in first-appearance
		// order, to the currently least-loaded worker, weighted by its
		// message count. O(distinct × workers) with small worker counts.
		for _, n := range touched {
			w := 0
			for v := 1; v < workers; v++ {
				if loads[v] < loads[w] {
					w = v
				}
			}
			e.nodeWorker[n.ID] = int32(w)
			loads[w] += int(e.nodeMsgs[n.ID])
		}
	}

	// Batch layout: count batches per worker, prefix-sum into spans, then
	// place one batch per node — worker-major, first-appearance order
	// within a worker — and carve each batch's [lo, hi) window out of the
	// job-order permutation.
	if cap(e.batchSpans) < workers+1 {
		e.batchSpans = make([]int32, workers+1)
		e.batchCursor = make([]int32, workers)
	}
	spans := e.batchSpans[:workers+1]
	cursor := e.batchCursor[:workers]
	clear(spans)
	for _, n := range touched {
		spans[e.nodeWorker[n.ID]+1]++
	}
	for w := 0; w < workers; w++ {
		spans[w+1] += spans[w]
		cursor[w] = spans[w]
	}
	if cap(e.batchScratch) < len(touched) {
		e.batchScratch = make([]applyBatch, len(touched), max(len(touched), 2*cap(e.batchScratch)))
	}
	batches := e.batchScratch[:len(touched)]
	for _, n := range touched {
		w := e.nodeWorker[n.ID]
		batches[cursor[w]] = applyBatch{node: n}
		cursor[w]++
	}
	var off int32
	for b := range batches {
		id := batches[b].node.ID
		cnt := e.nodeMsgs[id]
		batches[b].lo = off
		batches[b].hi = off + cnt
		// The count's job is done; the entry becomes the node's scatter
		// cursor into jobOrder.
		e.nodeMsgs[id] = off
		off += cnt
	}
	e.batchScratch = batches

	if cap(e.jobOrder) < len(jobs) {
		e.jobOrder = make([]int32, len(jobs), max(len(jobs), 2*cap(e.jobOrder)))
	}
	order := e.jobOrder[:len(jobs)]
	for k := range jobs {
		id := jobs[k].node.ID
		order[e.nodeMsgs[id]] = int32(k)
		e.nodeMsgs[id]++
	}
	e.jobOrder = order

	// Every touched entry now equals its batch's hi; reset for the next
	// round.
	for _, n := range touched {
		e.nodeMsgs[n.ID] = 0
	}
}

// releaseApplyScratch is the one place a cycle's payload references die.
// First every payload the cycle sent is offered back to its free list —
// each message lives in exactly one of the canonical list (proposed) or
// one round buffer (follow-up), so Recycle runs exactly once per payload.
// Then every payload-carrying scratch buffer — the propose outboxes, the
// canonical list, the routed job list, the per-worker follow-up outboxes
// and the merged follow-ups, the round buffers — is cleared over its full
// capacity extent; otherwise stale entries beyond the next cycle's
// high-water mark would pin delivered payloads for the engine's lifetime.
// The batch descriptors and the touched list hold only *Node pointers,
// which the arena keeps alive regardless, so they are deliberately not
// cleared — at n = 10^6 that skips tens of megabytes of per-cycle
// memset.
func (e *Engine) releaseApplyScratch(outs []Proposals, depth int) {
	for i := range e.msgScratch {
		if recyclePayload(&e.msgScratch[i]) {
			e.payloadsRecycled++
		}
	}
	for d := 0; d < depth; d++ {
		buf := e.rounds[d]
		for i := range buf {
			if recyclePayload(&buf[i]) {
				e.payloadsRecycled++
			}
		}
	}
	for w := range outs {
		clear(outs[w].msgs[:cap(outs[w].msgs)])
	}
	clear(e.msgScratch[:cap(e.msgScratch)])
	clear(e.jobScratch[:cap(e.jobScratch)])
	for w := range e.applyCtxs {
		out := e.applyCtxs[w].outbox
		clear(out[:cap(out)])
	}
	clear(e.followScratch[:cap(e.followScratch)])
	for d := range e.rounds {
		clear(e.rounds[d][:cap(e.rounds[d])])
	}
}

// Run executes up to maxCycles cycles, stopping early if an observer
// requests termination. It returns the number of cycles executed.
func (e *Engine) Run(maxCycles int64) int64 {
	var i int64
	for i = 0; i < maxCycles; i++ {
		if !e.RunCycle() {
			return i + 1
		}
	}
	return i
}

// String summarizes the engine state.
func (e *Engine) String() string {
	return fmt.Sprintf("sim.Engine{cycle=%d nodes=%d live=%d workers=%d apply=%d}",
		e.cycle, e.Size(), e.LiveCount(), e.workers, e.ApplyWorkers())
}
