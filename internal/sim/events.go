package sim

import (
	"gossipopt/internal/rng"
)

// The event-driven engine complements the cycle-driven one for experiments
// where message latency and loss matter. It hosts the same protocol stacks
// through the same contracts (see exchange.go), with time in place of
// lock-step cycles:
//
//   - Every protocol slot with a positive period is periodic: a per-node
//     timer fires Propose, and each message posted through Proposals
//     leaves as a latency-stamped leg. The first tick is uniform in
//     [0, period) from the engine RNG; each later one follows
//     period × U(0.8, 1.2) after the previous, drawn from the node's RNG,
//     so nodes desynchronize the way real hosts do.
//   - A leg arriving at a live, reachable destination calls Receive, and
//     its ApplyContext.Send follow-ups leave as new latency-stamped legs.
//   - A leg that finds its destination dead or partitioned, or that the
//     link lost, calls the sender's Undelivered at the leg's arrival time
//     — when a real initiator's connection would time out.
//
// Handlers run one at a time on the caller's goroutine, so the node-local
// rules of the cycle engine hold trivially. Payloads are never recycled
// here (see freelist.go). Timer firings count as Delivered; ticks that find
// their node dead, or that a Revive made stale, count as Dropped.

// eventKind tells the three kinds of queued event apart.
type eventKind uint8

const (
	// kindTick is a slot timer: msg.To's protocol in msg.Slot proposes.
	kindTick eventKind = iota
	// kindLeg is a message leg the link delivers.
	kindLeg
	// kindLost is a message leg the link lost; at its arrival time the
	// sender learns of the failure.
	kindLost
)

// event is a message leg in flight or a pending timer.
type event struct {
	at   float64
	seq  uint64 // tie-breaker for deterministic ordering
	msg  Message
	kind eventKind
	// gen is a tick's restart generation; a tick armed before the node's
	// last Revive is stale.
	gen uint32
}

// eventHeap is the engine's priority queue, a binary min-heap ordered by
// delivery time with the insertion sequence number as the deterministic
// tie-breaker. It is typed rather than built on container/heap so that
// queueing an event does not box it into an interface.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *eventHeap) pop() event {
	q := *h
	last := len(q) - 1
	ev := q[0]
	q[0] = q[last]
	q[last] = event{} // drop the payload reference
	q = q[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && q.less(c+1, c) {
			c++
		}
		if !q.less(c, i) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	*h = q
	return ev
}

// LinkModel decides per-message latency and loss.
type LinkModel interface {
	// Latency returns the transit delay for a message from src to dst.
	Latency(r *rng.RNG, src, dst NodeID) float64
	// Drop reports whether the message is lost in transit.
	Drop(r *rng.RNG, src, dst NodeID) bool
}

// UniformLink has latency uniform in [MinDelay, MaxDelay] and i.i.d. drop
// probability LossProb.
type UniformLink struct {
	MinDelay, MaxDelay float64
	LossProb           float64
}

// Latency implements LinkModel.
func (l UniformLink) Latency(r *rng.RNG, _, _ NodeID) float64 {
	if l.MaxDelay <= l.MinDelay {
		return l.MinDelay
	}
	return r.UniformIn(l.MinDelay, l.MaxDelay)
}

// Drop implements LinkModel.
func (l UniformLink) Drop(r *rng.RNG, _, _ NodeID) bool { return r.Bool(l.LossProb) }

// EventEngine is the event-driven simulation engine.
type EventEngine struct {
	rng *rng.RNG
	// arena stores the nodes densely by ID (same layout as the cycle
	// engine); gens is the parallel dense slice of restart generations.
	arena nodeArena
	gens  []uint32
	live  int
	// periods holds each protocol slot's timer period (see Start).
	periods []float64
	now     float64
	seq     uint64
	queue   eventHeap
	link    LinkModel
	filter  DeliveryFilter

	// px and ax are the contexts handed to Propose and to handlers; one
	// of each suffices, since handlers run one at a time.
	px Proposals
	ax ApplyContext

	delivered, dropped, evals int64
}

// NewEventEngine creates an event-driven engine with the given link model
// (nil means zero-latency, lossless links).
func NewEventEngine(seed uint64, link LinkModel) *EventEngine {
	if link == nil {
		link = UniformLink{}
	}
	e := &EventEngine{
		rng:  rng.New(seed),
		link: link,
	}
	e.ax.arena = &e.arena
	return e
}

// Now returns the current simulated time.
func (e *EventEngine) Now() float64 { return e.now }

// stamp is the logical timestamp Proposals.Cycle and ApplyContext.Cycle
// report on this engine: simulated time in 1/1024 units.
func (e *EventEngine) stamp() int64 { return int64(e.now * 1024) }

// AdvanceTo moves the clock forward to t even when no event is due — time
// never moves backwards. RunUntil leaves the clock at the last delivered
// event, so external schedulers (the scenario runner's scripted events)
// advance it explicitly to make their actions happen at the scripted time:
// a timer armed after a revive must count from the revive's time, not from
// whenever the queue last had traffic.
func (e *EventEngine) AdvanceTo(t float64) {
	if t > e.now {
		e.now = t
	}
}

// RNG exposes the engine's random stream.
func (e *EventEngine) RNG() *rng.RNG { return e.rng }

// Delivered returns the count of delivered message legs and timer firings.
func (e *EventEngine) Delivered() int64 { return e.delivered }

// Dropped returns the count of legs lost in transit or to a dead or
// unreachable destination, and of ticks that found their node dead or
// stale.
func (e *EventEngine) Dropped() int64 { return e.dropped }

// Evals returns the count of objective evaluations protocols reported
// through Proposals.CountEvals or ApplyContext.CountEvals, crashed nodes'
// included.
func (e *EventEngine) Evals() int64 { return e.evals }

// AddNode creates a live node with an empty protocol stack; the caller
// fills n.Protocols before Start.
func (e *EventEngine) AddNode() *Node {
	n := e.arena.alloc()
	n.Alive = true
	n.RNG = e.rng.Split()
	e.gens = append(e.gens, 0)
	e.live++
	return n
}

// AddNodes creates count nodes and returns them.
func (e *EventEngine) AddNodes(count int) []*Node {
	out := make([]*Node, count)
	for i := range out {
		out[i] = e.AddNode()
	}
	return out
}

// Node returns the node with the given ID, or nil.
func (e *EventEngine) Node(id NodeID) *Node { return e.arena.at(id) }

// Size returns the number of nodes ever created.
func (e *EventEngine) Size() int { return e.arena.len() }

// LiveCount returns the number of live nodes.
func (e *EventEngine) LiveCount() int { return e.live }

// Start arms the periodic timers: slot i of every live node is periodic
// when periods[i] > 0, with its first tick uniform in [0, periods[i]) from
// the engine RNG (nodes in ID order, slots in order). Call it once, after
// wiring the initial population's protocol stacks.
func (e *EventEngine) Start(periods ...float64) {
	e.periods = periods
	e.ForEachLive(func(n *Node) {
		for slot, p := range periods {
			if p > 0 && slot < len(n.Protocols) {
				e.arm(n, slot, e.rng.Float64()*p)
			}
		}
	})
}

// arm queues slot's next tick on n, delay from now, in n's current
// generation.
func (e *EventEngine) arm(n *Node, slot int, delay float64) {
	e.push(event{
		at:   e.now + delay,
		msg:  Message{From: n.ID, To: n.ID, Slot: slot},
		kind: kindTick,
		gen:  e.gens[n.ID],
	})
}

// rearm queues slot's following tick on n, period × U(0.8, 1.2) from now.
func (e *EventEngine) rearm(n *Node, slot int) {
	e.arm(n, slot, e.periods[slot]*(0.8+0.4*n.RNG.Float64()))
}

// Crash marks a node dead; queued legs to it will be dropped on arrival,
// exactly like a real crashed host. That includes its own pending ticks,
// so its periodic behaviour stops until Revive.
func (e *EventEngine) Crash(id NodeID) {
	if n := e.arena.at(id); n != nil && n.Alive {
		n.Alive = false
		e.live--
	}
}

// Revive marks a crashed node live again (a host restart) and re-arms
// every periodic slot, one jittered period from now. Its protocol state
// survives the outage, like a process restarting from a checkpoint. Ticks
// armed before the crash may still be queued; the restart generation makes
// them stale, so the node never runs two timer chains on one slot.
func (e *EventEngine) Revive(id NodeID) {
	n := e.arena.at(id)
	if n == nil || n.Alive {
		return
	}
	n.Alive = true
	e.live++
	e.gens[id]++
	for slot, p := range e.periods {
		if p > 0 && slot < len(n.Protocols) {
			e.rearm(n, slot)
		}
	}
}

// SetLink swaps the link model in force for subsequent legs — the hook
// behind scripted latency spikes and loss storms. Legs already in flight
// keep the fate and latency they were assigned; nil restores the default
// zero-latency lossless link.
func (e *EventEngine) SetLink(l LinkModel) {
	if l == nil {
		l = UniformLink{}
	}
	e.link = l
}

// SetDeliveryFilter installs (or, with nil, removes) the partition filter.
// It is consulted at arrival time, so legs in flight across a fresh
// partition are lost and delivery resumes for legs arriving after the
// heal. Timers are never filtered.
func (e *EventEngine) SetDeliveryFilter(f DeliveryFilter) { e.filter = f }

// LiveNodes returns all live nodes in ID order.
func (e *EventEngine) LiveNodes() []*Node {
	return e.AppendLiveNodes(make([]*Node, 0, e.live))
}

// AppendLiveNodes appends all live nodes in ID order onto buf and returns
// the extended slice — the scratch-reusing variant for repeated scans.
func (e *EventEngine) AppendLiveNodes(buf []*Node) []*Node {
	e.ForEachLive(func(n *Node) { buf = append(buf, n) })
	return buf
}

// ForEachLive calls f for every live node in ID order.
func (e *EventEngine) ForEachLive(f func(n *Node)) {
	for ci := range e.arena.chunks {
		c := e.arena.chunks[ci]
		for i := range c {
			if c[i].Alive {
				f(&c[i])
			}
		}
	}
}

// send queues one leg of m, judged by the link model now: a lost leg still
// travels, so that its sender hears of the loss at the arrival time.
func (e *EventEngine) send(m Message) {
	kind := kindLeg
	if e.link.Drop(e.rng, m.From, m.To) {
		kind = kindLost
	}
	e.push(event{at: e.now + e.link.Latency(e.rng, m.From, m.To), msg: m, kind: kind})
}

func (e *EventEngine) push(ev event) {
	e.seq++
	ev.seq = e.seq
	e.queue.push(ev)
}

// Step processes the next event. It reports false when the queue is empty.
func (e *EventEngine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.queue.pop()
	e.now = ev.at
	m := ev.msg
	switch ev.kind {
	case kindTick:
		n := e.arena.at(m.To)
		if !n.Alive || ev.gen != e.gens[m.To] {
			e.dropped++
			return true
		}
		e.delivered++
		if p, ok := n.Protocols[m.Slot].(Proposer); ok {
			e.propose(n, p)
		}
		e.rearm(n, m.Slot)
	case kindLeg, kindLost:
		dst := e.arena.at(m.To)
		if ev.kind == kindLost || dst == nil || !dst.Alive || e.filter.blocked(m.From, m.To) {
			e.dropped++
			if src := e.arena.at(m.From); src != nil && src.Alive {
				e.handle(src, m, false)
			}
			return true
		}
		e.delivered++
		e.handle(dst, m, true)
	}
	return true
}

// propose runs one tick's Propose and sends what it posted.
func (e *EventEngine) propose(n *Node, p Proposer) {
	px := &e.px
	px.cycle = e.stamp()
	px.begin(n.ID)
	p.Propose(n, px)
	e.evals += px.evals
	px.evals = 0
	for _, m := range px.msgs {
		e.send(m)
	}
	clear(px.msgs)
	px.msgs = px.msgs[:0]
}

// handle runs Receive (deliver) or Undelivered on n and sends the
// follow-ups it posted.
func (e *EventEngine) handle(n *Node, m Message, deliver bool) {
	ax := &e.ax
	ax.cycle = e.stamp()
	dispatch(n, ax, m, 0, deliver)
	e.evals += ax.evals
	ax.evals = 0
	for _, f := range ax.outbox {
		e.send(f.msg)
	}
	clear(ax.outbox)
	ax.outbox = ax.outbox[:0]
}

// RunUntil processes events until the queue drains, the time horizon is
// reached, or maxEvents events have been processed. It returns the number
// of events processed.
func (e *EventEngine) RunUntil(horizon float64, maxEvents int64) int64 {
	var count int64
	for count < maxEvents && len(e.queue) > 0 && e.queue[0].at <= horizon {
		e.Step()
		count++
	}
	return count
}
