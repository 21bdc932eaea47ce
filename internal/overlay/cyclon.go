package overlay

import (
	"gossipopt/internal/rng"
	"gossipopt/internal/sim"
)

// Cyclon is the other canonical peer-sampling protocol (Voulgaris, Gavidia
// & van Steen 2005), included as an alternative topology service. Unlike
// Newscast's full-view push-pull, Cyclon *swaps* a small shuffle subset:
// the initiator selects its oldest neighbor, sends L random descriptors
// (including a fresh self-descriptor), and receives L of the peer's in
// exchange; each side replaces exactly the entries it sent away. Swapping
// preserves in-degree much more tightly than Newscast's merge, at the cost
// of slower dissemination of fresh descriptors.
type Cyclon struct {
	// C is the view size; L is the shuffle length (L <= C, default C/2).
	C, L int
	// Slot is the protocol slot where Cyclon instances live on all nodes.
	Slot int

	self sim.NodeID
	view *View

	// Exchanges counts initiated shuffles; FailedExchanges counts
	// shuffles aimed at crashed peers.
	Exchanges, FailedExchanges int64

	// poolScratch holds the filtered candidate pool during appendSubset.
	// Node-local (Propose and Receive run on the worker owning this node),
	// so reusing it across calls is race-free.
	poolScratch []Descriptor
}

// Compile-time guards for the two-phase contracts (see Newscast's note).
var (
	_ sim.Proposer      = (*Cyclon)(nil)
	_ sim.Receiver      = (*Cyclon)(nil)
	_ sim.Undeliverable = (*Cyclon)(nil)
)

// NewCyclon creates the Cyclon instance for the given node.
func NewCyclon(self sim.NodeID, c, l, slot int) *Cyclon {
	if l <= 0 || l > c {
		l = c / 2
		if l == 0 {
			l = 1
		}
	}
	return &Cyclon{C: c, L: l, Slot: slot, self: self, view: NewView(c)}
}

// View exposes the current view.
func (cy *Cyclon) View() *View { return cy.view }

// SamplePeer implements PeerSampler.
func (cy *Cyclon) SamplePeer(r *rng.RNG) (sim.NodeID, bool) {
	return cy.view.SampleID(r)
}

// Neighbors implements PeerSampler.
func (cy *Cyclon) Neighbors() []sim.NodeID { return cy.view.IDs() }

// Bootstrap seeds the view.
func (cy *Cyclon) Bootstrap(peers []sim.NodeID) {
	batch := make([]Descriptor, 0, len(peers))
	for _, id := range peers {
		batch = append(batch, Descriptor{ID: id, Stamp: 0})
	}
	cy.view.Merge(cy.self, batch)
}

// oldest returns the stalest descriptor in the view (Cyclon always
// shuffles with its oldest neighbor, which is what ages out dead nodes).
func (cy *Cyclon) oldest() (Descriptor, bool) {
	ds := cy.view.items
	if len(ds) == 0 {
		return Descriptor{}, false
	}
	old := ds[0]
	for _, d := range ds[1:] {
		if d.Stamp < old.Stamp {
			old = d
		}
	}
	return old, true
}

// appendSubset appends up to l random view descriptors (excluding the one
// with the peer's ID — it is replaced by the fresh self-descriptor) onto
// dst and returns the extended slice. The RNG draw pattern matches the
// historical subset helper exactly: no draw when the filtered pool fits
// in l, one Sample(len(pool), l) otherwise.
func (cy *Cyclon) appendSubset(dst []Descriptor, r *rng.RNG, l int, exclude sim.NodeID) []Descriptor {
	pool := cy.poolScratch[:0]
	for _, d := range cy.view.items {
		if d.ID != exclude {
			pool = append(pool, d)
		}
	}
	cy.poolScratch = pool
	if len(pool) <= l {
		return append(dst, pool...)
	}
	for _, i := range r.Sample(len(pool), l) {
		dst = append(dst, pool[i])
	}
	return dst
}

// shuffleReq is Cyclon's proposed exchange: the initiator's shuffle subset
// (L-1 random descriptors plus a fresh self-descriptor). Pooled via
// sim.Recyclable, like Newscast's payloads.
type shuffleReq struct {
	Sent []Descriptor
}

// shuffleRep is the answer leg: the partner's reply subset plus an echo of
// what the initiator sent, so the initiator can do its own swap
// bookkeeping node-locally (discard what it sent, merge what it got).
// Echo aliases the request's Sent buffer — legal within the cycle, and
// Recycle drops the alias instead of recycling it (the request's own
// Recycle returns that buffer).
type shuffleRep struct {
	Reply []Descriptor
	Echo  []Descriptor
}

var (
	shuffleReqPool sim.FreeList[shuffleReq]
	shuffleRepPool sim.FreeList[shuffleRep]
)

// Recycle implements sim.Recyclable.
func (s *shuffleReq) Recycle() {
	s.Sent = s.Sent[:0]
	shuffleReqPool.Put(s)
}

// Recycle implements sim.Recyclable.
func (s *shuffleRep) Recycle() {
	s.Reply = s.Reply[:0]
	s.Echo = nil // aliases the request's buffer; its Recycle owns it
	shuffleRepPool.Put(s)
}

// Propose implements sim.Proposer: select the oldest neighbor and propose
// a shuffle, sending L-1 random descriptors plus a fresh self-descriptor.
// The initiator's view is not yet modified — swap bookkeeping happens when
// the reply is computed in Receive (or in Undelivered on failure).
func (cy *Cyclon) Propose(n *sim.Node, px *sim.Proposals) {
	target, ok := cy.oldest()
	if !ok {
		return
	}
	cy.Exchanges++
	req := shuffleReqPool.Get()
	req.Sent = cy.appendSubset(req.Sent[:0], n.RNG, cy.L-1, target.ID)
	req.Sent = append(req.Sent, Descriptor{ID: cy.self, Stamp: px.Cycle()})
	px.Send(target.ID, cy.Slot, req)
}

// Receive implements sim.Receiver, node-locally. On the request leg the
// contacted peer answers with L of its own descriptors (never including
// the initiator), settles its side of the swap — discard what it sent,
// merge what it received — and mails the reply (plus an echo of the
// request) back. On the reply leg the initiator settles its side: replace
// the target's entry and the echoed descriptors it sent away with the
// reply subset.
func (cy *Cyclon) Receive(n *sim.Node, ax *sim.ApplyContext, msg sim.Message) {
	switch req := msg.Data.(type) {
	case *shuffleReq:
		rep := shuffleRepPool.Get()
		rep.Reply = cy.appendSubset(rep.Reply[:0], n.RNG, cy.L, msg.From)
		for _, d := range rep.Reply {
			cy.view.Remove(d.ID)
		}
		cy.view.Merge(cy.self, req.Sent)
		rep.Echo = req.Sent
		ax.Send(msg.From, cy.Slot, rep)
	case *shuffleRep:
		cy.view.Remove(msg.From)
		for _, d := range req.Echo {
			if d.ID != cy.self {
				cy.view.Remove(d.ID)
			}
		}
		cy.view.Merge(cy.self, req.Reply)
	}
}

// Undelivered implements sim.Undeliverable: the oldest neighbor was dead —
// exactly the case Cyclon's oldest-first policy is designed to flush. A
// dead reply leg (one-way partition) also flushes the unreachable peer,
// but only a failed initiation counts as a FailedExchange.
func (cy *Cyclon) Undelivered(n *sim.Node, ax *sim.ApplyContext, msg sim.Message) {
	if _, initiated := msg.Data.(*shuffleReq); initiated {
		cy.FailedExchanges++
	}
	cy.view.Remove(msg.To)
}

// InitCyclon wires Cyclon into protocol slot `slot` of every node in
// nodes, bootstrapping with up to c random peers of the set chosen by r.
func InitCyclon(nodes []*sim.Node, r *rng.RNG, slot, c, l int) {
	ids := make([]sim.NodeID, len(nodes))
	for i, n := range nodes {
		ids[i] = n.ID
	}
	for _, n := range nodes {
		cy := NewCyclon(n.ID, c, l, slot)
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
		cy.Bootstrap(peers)
		for len(n.Protocols) <= slot {
			n.Protocols = append(n.Protocols, nil)
		}
		n.Protocols[slot] = cy
	}
}
