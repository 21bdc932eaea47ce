package sim

// The two-phase exchange model.
//
// Engine.RunCycle executes each cycle in two phases, both running on the
// engine's persistent worker pool:
//
//   - Phase 1 (parallel propose): live nodes are partitioned into
//     contiguous shards, one per propose worker. Each worker steps its
//     nodes' protocols; a protocol implementing Proposer performs its
//     node-local work (solver evaluation, timer bookkeeping, sampling a
//     partner from its own view) and *proposes* exchanges by posting
//     Messages through Proposals. During this phase a protocol may only
//     read and write the state of its own node — never a peer's — which
//     is what makes the phase safe to run on concurrent workers.
//
//   - Phase 2 (parallel apply): the per-worker outboxes are concatenated
//     in shard order (= sender-ID order, independent of the propose worker
//     count) and shuffled into a seed-derived canonical order with the
//     engine RNG. Delivery then proceeds in *rounds*: each round's
//     messages are partitioned by the node that must handle them — the
//     destination for deliverable messages, the sender for undeliverable
//     ones — so every node's messages land on exactly one apply worker,
//     in canonical order. A handler is node-local: Receive/Undelivered may
//     touch only the handled node's state and post follow-up messages
//     (replies) through the ApplyContext; the follow-ups form the next
//     round, globally ordered by the canonical index of the message that
//     triggered them. Rounds repeat until no protocol posts a follow-up.
//
// Determinism: the per-node handler-call order is the canonical order
// restricted to that node, which no sharding can change; follow-ups are
// re-canonicalized by trigger index; counters are classified on the
// coordinator; and every apply-phase random draw comes from the handled
// node's private RNG. A run's trace is therefore bit-identical for any
// (propose workers × apply workers) combination, 1×1 included.
//
// The exchange idiom: symmetric protocols complete a pairwise exchange by
// replying in the next round (ax.Send back to msg.From) instead of
// reaching into the initiator through the engine, so each leg of the
// exchange crosses the network — and the delivery filter — on its own.
// A reply that cannot be delivered (a one-way partition) fires the
// replier's Undelivered hook, which is where a protocol compensates
// (gossip.Average rolls its half of the exchange back there, keeping the
// global sum conserved under asymmetric cuts).

// Message is one proposed exchange: a payload traveling from the proposing
// node to a peer's protocol slot, delivered during the apply phase.
type Message struct {
	// From is the proposing node; To is the destination node.
	From, To NodeID
	// Slot is the protocol slot addressed on the destination node. All
	// bundled protocols are symmetric (Newscast talks to Newscast, OptNode
	// to OptNode), so Slot also locates the sender's own instance when a
	// failure must be reported back.
	Slot int
	// Data is the protocol-specific payload. Ownership transfers to the
	// receiver: proposers must not retain or mutate it after Send. On the
	// cycle engine a payload implementing Recyclable returns to its free
	// list when the cycle ends (see freelist.go for the full ownership
	// rules), so handlers must not retain it — or slices inside it —
	// across cycles.
	Data any
	// redelivered marks a leg re-entering a later cycle after a net-model
	// delay (see netmodel.go): it is re-checked against liveness and the
	// delivery filter at its release cycle, but never judged by the model
	// twice — a delayed leg cannot be re-delayed, re-lost or corrupted.
	redelivered bool
}

// Proposer is the phase-1 contract of the two-phase exchange model.
// Propose performs the node's local work for the cycle and posts exchange
// proposals. It runs concurrently with other nodes' Propose calls and must
// only touch n's own state (its protocols, its RNG) and px.
type Proposer interface {
	Propose(n *Node, px *Proposals)
}

// Receiver is the phase-2 contract: Receive handles one delivered message
// on the destination node n. It runs on an apply worker that owns n for
// the round, concurrently with other nodes' handlers, and therefore must
// be node-local: it may touch only n's own state (its protocols, its RNG)
// and ax. To complete a symmetric exchange it posts a reply through
// ax.Send — delivered in the next apply round of the same cycle — instead
// of mutating the initiator directly.
type Receiver interface {
	Receive(n *Node, ax *ApplyContext, msg Message)
}

// Undeliverable is implemented by protocols that want failure feedback:
// Undelivered is invoked on the *sender's* protocol instance when the
// destination node is dead or unreachable at delivery time, or the network
// lost the leg (n is the sender) — the failure a real initiator would
// observe as a timed-out connection. Like Receive it runs on an apply worker and must stay
// node-local; ax.Alive distinguishes a confirmed crash from a peer that
// is merely unreachable (delivery filter / partition), and ax.Send lets a
// protocol compensate for a half-completed exchange whose reply leg died.
type Undeliverable interface {
	Undelivered(n *Node, ax *ApplyContext, msg Message)
}

// Proposals is a worker-local outbox handed to Propose. It also aggregates
// per-worker bookkeeping (function-evaluation counts) so phase 1 needs no
// shared atomics.
type Proposals struct {
	cycle int64
	from  NodeID
	msgs  []Message
	evals int64
}

// Cycle returns the logical timestamp of the proposal: the number of
// completed cycles on the cycle engine, simulated time in 1/1024 units on
// the event engine.
func (px *Proposals) Cycle() int64 { return px.cycle }

// Send proposes an exchange: data will be delivered to the given protocol
// slot of node `to` during the apply phase. Ownership of data (and any
// slices inside it) transfers to the receiver. A node's own messages keep
// their proposal order within the outbox; across nodes the engine imposes
// the canonical order.
func (px *Proposals) Send(to NodeID, slot int, data any) {
	px.msgs = append(px.msgs, Message{From: px.from, To: to, Slot: slot, Data: data})
}

// CountEvals adds k objective evaluations to the engine's global counter
// (aggregated race-free at the phase barrier; see Engine.Evals and
// EventEngine.Evals).
func (px *Proposals) CountEvals(k int64) { px.evals += k }

// begin readies the outbox for the next node of the worker's shard.
func (px *Proposals) begin(id NodeID) { px.from = id }

// followUp is one reply posted during apply, tagged with the canonical
// index of the message whose handler posted it so the coordinator can
// restore the exact order a sequential apply would have produced.
type followUp struct {
	trigger int
	msg     Message
}

// ApplyContext is the restricted per-worker context handed to phase-2
// handlers (Receive/Undelivered), on either engine. It deliberately does
// not expose the engine: a handler sees only the node it was invoked on,
// the logical time, read-only liveness (frozen for the duration of the
// cycle engine's apply phase), counters, and an outbox for follow-up
// messages. That restriction is what makes the apply phase shardable by
// destination.
type ApplyContext struct {
	arena *nodeArena
	cycle int64
	// self is the node currently being handled; follow-ups are sent from
	// it.
	self NodeID
	// trigger is the canonical index of the message being handled.
	trigger int
	outbox  []followUp
	evals   int64
}

// reset readies the context for a new apply round.
func (ax *ApplyContext) reset(e *Engine, cycle int64) {
	ax.arena = &e.arena
	ax.cycle = cycle
	ax.outbox = ax.outbox[:0]
	ax.evals = 0
}

// Cycle returns the logical timestamp of the delivery, in the units of
// Proposals.Cycle (on the cycle engine, the same stamp Propose saw).
func (ax *ApplyContext) Cycle() int64 { return ax.cycle }

// Send posts a follow-up message from the handled node — the reply leg of
// a symmetric exchange. The cycle engine delivers it in the next apply
// round of the same cycle; the event engine sends it as a new leg, subject
// to the link. Ownership of data transfers to the receiver, exactly as
// with Proposals.Send. Follow-ups are re-canonicalized across workers by
// the triggering message's canonical index, so their delivery order is
// independent of the apply worker count.
func (ax *ApplyContext) Send(to NodeID, slot int, data any) {
	ax.outbox = append(ax.outbox, followUp{
		trigger: ax.trigger,
		msg:     Message{From: ax.self, To: to, Slot: slot, Data: data},
	})
}

// Alive reports whether the node with the given ID currently exists and is
// live. Node liveness is frozen while the apply phase runs (churn happens
// at the start of a cycle, observers at its end, and handlers cannot crash
// nodes), so the query is safe from concurrent apply workers. T-Man uses
// it in Undelivered to distinguish a confirmed crash (tombstone) from an
// unreachable, partitioned peer (re-adopted after the heal).
func (ax *ApplyContext) Alive(id NodeID) bool {
	n := ax.arena.at(id)
	return n != nil && n.Alive
}

// CountEvals adds k objective evaluations to the engine's global counter
// (aggregated race-free at the round barrier; see Engine.Evals).
func (ax *ApplyContext) CountEvals(k int64) { ax.evals += k }
