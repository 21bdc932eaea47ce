// Package overlay implements the paper's topology service: the NEWSCAST
// gossip-based peer-sampling protocol (Jelasity et al.), a set of static
// reference topologies (full mesh, ring, star/master-slave, grid,
// k-regular random, Watts–Strogatz small-world) and graph-analysis helpers
// used to verify that Newscast indeed maintains a strongly connected,
// random-graph-like overlay under churn.
package overlay

import (
	"gossipopt/internal/rng"
	"gossipopt/internal/sim"
)

// Descriptor is a Newscast node descriptor: a remote node identifier plus a
// logical timestamp recording when the descriptor was created. Fresher
// descriptors win during view merges, which is what flushes crashed nodes
// out of the overlay.
type Descriptor struct {
	ID    sim.NodeID
	Stamp int64
}

// View is a bounded set of descriptors, at most one per node ID, ordered by
// freshness (freshest first). The zero value is an empty view.
//
// Invariant: items is always in merge order — stamp descending, then mix
// ascending, then ID ascending. Merge writes it in that order and Remove
// preserves it (no other method mutates items), which is what lets Merge
// fold a batch in with one linear pass instead of re-sorting the view.
type View struct {
	c     int
	items []Descriptor
}

// NewView creates an empty view with capacity c.
func NewView(c int) *View { return &View{c: c} }

// Cap returns the view capacity.
func (v *View) Cap() int { return v.c }

// Len returns the number of descriptors currently held.
func (v *View) Len() int { return len(v.items) }

// IDs returns the node IDs in the view, freshest first.
func (v *View) IDs() []sim.NodeID {
	out := make([]sim.NodeID, len(v.items))
	for i, d := range v.items {
		out[i] = d.ID
	}
	return out
}

// Descriptors returns a copy of the view contents, freshest first.
func (v *View) Descriptors() []Descriptor {
	return append([]Descriptor(nil), v.items...)
}

// AppendDescriptors appends the view contents, freshest first, onto buf
// and returns the extended slice — the allocation-free variant of
// Descriptors for per-cycle snapshots into recycled payload buffers.
func (v *View) AppendDescriptors(buf []Descriptor) []Descriptor {
	return append(buf, v.items...)
}

// SampleID returns a uniformly random ID from the view without
// materializing the ID slice (ok is false when the view is empty). The
// draw is identical to indexing IDs(): one Intn over the view length.
func (v *View) SampleID(r *rng.RNG) (sim.NodeID, bool) {
	if len(v.items) == 0 {
		return 0, false
	}
	return v.items[r.Intn(len(v.items))].ID, true
}

// Contains reports whether the view holds a descriptor for id.
func (v *View) Contains(id sim.NodeID) bool { return containsID(v.items, id) }

// Insert merges a single descriptor into the view, keeping at most one
// descriptor per ID (the freshest) and at most Cap descriptors overall
// (the freshest). self is excluded: a view never contains its owner.
func (v *View) Insert(self sim.NodeID, d Descriptor) {
	v.Merge(self, []Descriptor{d})
}

// mix hashes a descriptor to break freshness ties. Breaking ties by plain
// ID order would systematically favor low-ID nodes and grow hubs; a
// deterministic hash keeps merging reproducible without the bias.
func mix(d Descriptor) uint64 {
	x := uint64(d.ID)*0x9e3779b97f4a7c15 ^ uint64(d.Stamp)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	return x ^ x>>29
}

// mergeStack is the batch length and view capacity up to which Merge
// works in stack arrays and allocates nothing. Those stay in cache from
// call to call, unlike per-view buffers, and hold Newscast's
// c+2-descriptor batches for every c up to 62. Longer batches and larger
// (or unbounded, zero) capacities merge the same way; append then moves
// the overflowing array to the heap for that call.
const mergeStack = 64

// ranked is a merge candidate whose tie-break hash is computed on the
// first stamp tie that needs it and then reused.
type ranked struct {
	Descriptor
	h      uint64
	hashed bool
}

func (r *ranked) hash() uint64 {
	if !r.hashed {
		r.h, r.hashed = mix(r.Descriptor), true
	}
	return r.h
}

// before reports whether r precedes o in merge order. The order is total
// on distinct descriptors (equal keys mean identical values), so a merge
// result never depends on how candidates were arranged beforehand.
func (r *ranked) before(o *ranked) bool {
	if r.Stamp != o.Stamp {
		return r.Stamp > o.Stamp
	}
	if hr, ho := r.hash(), o.hash(); hr != ho {
		return hr < ho
	}
	return r.ID < o.ID
}

// Merge folds a batch of descriptors into the view under the Newscast rule:
// drop self-descriptors, deduplicate by ID keeping the freshest stamp, then
// keep the Cap freshest overall. Ties in freshness break by a deterministic
// hash of the descriptor so merging is reproducible yet unbiased.
//
// The result is that of sorting view and batch together in merge order
// and keeping the first descriptor of each ID, up to Cap. Since the view
// is already in that order, only the batch is sorted — by insertion, as
// Newscast batches are a sorted snapshot plus two fresh descriptors and
// other batches are short — and then merged with the view in one pass
// that stops once Cap descriptors are kept. The first occurrence of an ID
// in merge order is its freshest descriptor, so keep-first deduplication
// over the at most Cap kept entries selects it. The batch is only read.
func (v *View) Merge(self sim.NodeID, batch []Descriptor) {
	var sorted [mergeStack]ranked
	b := sorted[:0]
	for _, d := range batch {
		if d.ID == self {
			continue
		}
		r := ranked{Descriptor: d}
		k := len(b)
		b = append(b, r)
		for ; k > 0 && r.before(&b[k-1]); k-- {
			b[k] = b[k-1]
		}
		b[k] = r
	}

	// The kept descriptors are copied over items at the end; until then
	// items is still being read.
	var kept [mergeStack]Descriptor
	out := kept[:0]
	// seen filters the keep-first scan: a clear bit proves that no kept
	// descriptor has the candidate's ID.
	var seen [4]uint64
	var head ranked // items[i], hashed at most once however often compared
	if len(v.items) > 0 {
		head.Descriptor = v.items[0]
	}
	for i, j := 0, 0; i < len(v.items) || j < len(b); {
		var d Descriptor
		if j == len(b) || (i < len(v.items) && !b[j].before(&head)) {
			d = head.Descriptor
			if i++; i < len(v.items) {
				head = ranked{Descriptor: v.items[i]}
			}
		} else {
			d = b[j].Descriptor
			j++
		}
		w, bit := &seen[uint64(d.ID)/64%uint64(len(seen))], uint64(1)<<(uint64(d.ID)%64)
		if *w&bit != 0 && containsID(out, d.ID) {
			continue
		}
		*w |= bit
		out = append(out, d)
		if len(out) == v.c {
			break
		}
	}
	v.items = append(v.items[:0], out...)
}

// containsID reports whether ds holds a descriptor for id.
func containsID(ds []Descriptor, id sim.NodeID) bool {
	for _, d := range ds {
		if d.ID == id {
			return true
		}
	}
	return false
}

// Remove deletes the descriptor for id, if present.
func (v *View) Remove(id sim.NodeID) {
	for i, d := range v.items {
		if d.ID == id {
			v.items = append(v.items[:i], v.items[i+1:]...)
			return
		}
	}
}

// Clone returns an independent copy of the view.
func (v *View) Clone() *View {
	return &View{c: v.c, items: append([]Descriptor(nil), v.items...)}
}
