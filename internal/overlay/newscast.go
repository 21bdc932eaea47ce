package overlay

import (
	"gossipopt/internal/rng"
	"gossipopt/internal/sim"
)

// PeerSampler is the interface the coordination layer uses to obtain gossip
// partners: the peer-sampling service of Jelasity et al. Implementations
// include Newscast (dynamic, self-repairing) and the static topologies in
// static.go.
type PeerSampler interface {
	// SamplePeer returns a (hopefully live) peer drawn from the node's
	// current view. ok is false when the view is empty.
	SamplePeer(r *rng.RNG) (id sim.NodeID, ok bool)
	// Neighbors returns the node's current out-links (for graph analysis).
	Neighbors() []sim.NodeID
}

// Newscast is the paper's topology service. Each node maintains a view of C
// descriptors; once per cycle it (i) picks a random peer from its view,
// (ii) refreshes its own descriptor with the current logical time, and
// (iii) performs a symmetric view exchange: both sides merge the union of
// the two views plus both fresh self-descriptors, keeping the C freshest.
//
// The periodic exchange continuously shuffles views (≈ random graph with
// out-degree C), keeps the overlay strongly connected (C = 20 is already
// very robust per the Newscast literature) and self-heals: crashed nodes
// stop injecting fresh descriptors, so their stale entries age out.
type Newscast struct {
	// C is the view size (paper/literature default 20).
	C int
	// Slot is the protocol slot index where Newscast instances live on
	// every node, so a node can address its partner's instance.
	Slot int

	self sim.NodeID
	view *View

	// Exchanges counts initiated view exchanges (metrics).
	Exchanges int64
	// FailedExchanges counts exchanges aimed at crashed peers.
	FailedExchanges int64
}

// Compile-time guards: sim.Protocol is untyped, so assert the two-phase
// contracts explicitly — a signature drift must fail the build, not turn
// the protocol into a silent no-op.
var (
	_ sim.Proposer      = (*Newscast)(nil)
	_ sim.Receiver      = (*Newscast)(nil)
	_ sim.Undeliverable = (*Newscast)(nil)
)

// NewNewscast creates the Newscast instance for the given node.
func NewNewscast(self sim.NodeID, c, slot int) *Newscast {
	return &Newscast{C: c, Slot: slot, self: self, view: NewView(c)}
}

// View exposes the node's current view (read-mostly; used by tests and
// graph analysis).
func (nc *Newscast) View() *View { return nc.view }

// SamplePeer implements PeerSampler by uniform choice over the view. On
// the propose hot path, so it draws straight from the view instead of
// materializing an ID slice per call.
func (nc *Newscast) SamplePeer(r *rng.RNG) (sim.NodeID, bool) {
	return nc.view.SampleID(r)
}

// Neighbors implements PeerSampler.
func (nc *Newscast) Neighbors() []sim.NodeID { return nc.view.IDs() }

// Bootstrap seeds the view with the given peers at logical time 0.
func (nc *Newscast) Bootstrap(peers []sim.NodeID) {
	batch := make([]Descriptor, 0, len(peers))
	for _, id := range peers {
		batch = append(batch, Descriptor{ID: id, Stamp: 0})
	}
	nc.view.Merge(nc.self, batch)
}

// viewSwap is Newscast's proposed exchange: the initiator's view snapshot
// plus the logical time of the cycle, delivered to the chosen partner.
// Payloads are pooled (sim.Recyclable): a cycle at large n creates one
// snapshot per live node, so recycling the descriptor buffers removes the
// dominant per-cycle allocation.
type viewSwap struct {
	Descs []Descriptor
	Stamp int64
}

// viewSwapReply is the pull half of the exchange: the partner's pre-merge
// view (plus both fresh self-descriptors), mailed back to the initiator in
// the next apply round.
type viewSwapReply struct {
	Descs []Descriptor
}

var (
	viewSwapPool      sim.FreeList[viewSwap]
	viewSwapReplyPool sim.FreeList[viewSwapReply]
)

// Recycle implements sim.Recyclable.
func (s *viewSwap) Recycle() {
	s.Descs = s.Descs[:0]
	viewSwapPool.Put(s)
}

// Recycle implements sim.Recyclable.
func (s *viewSwapReply) Recycle() {
	s.Descs = s.Descs[:0]
	viewSwapReplyPool.Put(s)
}

// Propose implements sim.Proposer: pick a partner from the node's own view
// and propose a symmetric view exchange. Only the node's own state is
// touched — the swap itself happens in Receive during the apply phase.
func (nc *Newscast) Propose(n *sim.Node, px *sim.Proposals) {
	peerID, ok := nc.SamplePeer(n.RNG)
	if !ok {
		return
	}
	nc.Exchanges++
	sw := viewSwapPool.Get()
	sw.Descs = nc.view.AppendDescriptors(sw.Descs[:0])
	sw.Stamp = px.Cycle()
	px.Send(peerID, nc.Slot, sw)
}

// Receive implements sim.Receiver, node-locally. On the initiating leg the
// receiver merges the initiator's snapshot plus both fresh self-descriptors
// and mails its own pre-merge view back; on the reply leg the initiator
// merges that snapshot — the same symmetric outcome as an inline exchange,
// with each leg crossing the network (and the delivery filter) on its own.
func (nc *Newscast) Receive(n *sim.Node, ax *sim.ApplyContext, msg sim.Message) {
	switch sw := msg.Data.(type) {
	case *viewSwap:
		myDesc := Descriptor{ID: nc.self, Stamp: sw.Stamp}
		peerDesc := Descriptor{ID: msg.From, Stamp: sw.Stamp}
		// Snapshot the pre-merge view into the pooled reply, then extend
		// the received (owned, pooled) snapshot in place for the merge —
		// the same merge input and reply contents as the historical
		// fresh-slice construction, with both buffers recycled at cycle
		// end.
		rep := viewSwapReplyPool.Get()
		rep.Descs = nc.view.AppendDescriptors(rep.Descs[:0])
		rep.Descs = append(rep.Descs, myDesc, peerDesc)
		sw.Descs = append(sw.Descs, peerDesc, myDesc)
		nc.view.Merge(nc.self, sw.Descs)
		ax.Send(msg.From, nc.Slot, rep)
	case *viewSwapReply:
		nc.view.Merge(nc.self, sw.Descs)
	}
}

// Undelivered implements sim.Undeliverable: the partner is dead or
// unreachable, so the exchange (or its reply leg) is simply lost. Drop the
// unreachable descriptor locally so repeated failures do not pin the view;
// only a failed initiation counts as a FailedExchange.
func (nc *Newscast) Undelivered(n *sim.Node, ax *sim.ApplyContext, msg sim.Message) {
	if _, initiated := msg.Data.(*viewSwap); initiated {
		nc.FailedExchanges++
	}
	nc.view.Remove(msg.To)
}

// InitNewscast wires a Newscast instance into protocol slot `slot` of every
// node in nodes, bootstrapping each view with up to c random peers of the
// set chosen by r (the engine RNG, on either engine). Call after all
// initial nodes are added; newly joining nodes (churn) get their instance
// from the node factory and bootstrap lazily via exchanges initiated by
// others... but since a joiner with an empty view can never initiate,
// factories should call Bootstrap with at least one known node, mirroring
// a real deployment's bootstrap server.
func InitNewscast(nodes []*sim.Node, r *rng.RNG, slot, c int) {
	ids := make([]sim.NodeID, len(nodes))
	for i, n := range nodes {
		ids[i] = n.ID
	}
	for _, n := range nodes {
		nc := NewNewscast(n.ID, c, slot)
		// Bootstrap with up to c random other nodes.
		k := c
		if k > len(ids)-1 {
			k = len(ids) - 1
		}
		peers := make([]sim.NodeID, 0, k)
		for _, idx := range r.Sample(len(ids), k+1) {
			if ids[idx] != n.ID && len(peers) < k {
				peers = append(peers, ids[idx])
			}
		}
		nc.Bootstrap(peers)
		for len(n.Protocols) <= slot {
			n.Protocols = append(n.Protocols, nil)
		}
		n.Protocols[slot] = nc
	}
}
