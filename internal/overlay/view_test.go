package overlay

import (
	"cmp"
	"slices"
	"testing"
	"testing/quick"

	"gossipopt/internal/rng"
	"gossipopt/internal/sim"
)

func TestViewInsertBasic(t *testing.T) {
	v := NewView(3)
	v.Insert(9, Descriptor{ID: 1, Stamp: 5})
	v.Insert(9, Descriptor{ID: 2, Stamp: 3})
	if v.Len() != 2 {
		t.Fatalf("Len=%d", v.Len())
	}
	if !v.Contains(1) || !v.Contains(2) || v.Contains(3) {
		t.Fatal("Contains wrong")
	}
}

func TestViewExcludesSelf(t *testing.T) {
	v := NewView(3)
	v.Insert(7, Descriptor{ID: 7, Stamp: 100})
	if v.Len() != 0 {
		t.Fatal("view accepted a self-descriptor")
	}
}

func TestViewKeepsFreshestPerID(t *testing.T) {
	v := NewView(3)
	v.Insert(0, Descriptor{ID: 1, Stamp: 5})
	v.Insert(0, Descriptor{ID: 1, Stamp: 9})
	v.Insert(0, Descriptor{ID: 1, Stamp: 2})
	if v.Len() != 1 {
		t.Fatalf("Len=%d, want 1", v.Len())
	}
	if d := v.Descriptors()[0]; d.Stamp != 9 {
		t.Fatalf("kept stamp %d, want 9", d.Stamp)
	}
}

func TestViewCapacityKeepsFreshest(t *testing.T) {
	v := NewView(2)
	v.Merge(0, []Descriptor{
		{ID: 1, Stamp: 1}, {ID: 2, Stamp: 5}, {ID: 3, Stamp: 3},
	})
	if v.Len() != 2 {
		t.Fatalf("Len=%d, want 2", v.Len())
	}
	ids := v.IDs()
	if ids[0] != 2 || ids[1] != 3 {
		t.Fatalf("kept %v, want [2 3] (freshest first)", ids)
	}
}

func TestViewRemove(t *testing.T) {
	v := NewView(3)
	v.Merge(0, []Descriptor{{ID: 1, Stamp: 1}, {ID: 2, Stamp: 2}})
	v.Remove(1)
	if v.Contains(1) || !v.Contains(2) {
		t.Fatal("Remove wrong")
	}
	v.Remove(99) // no-op
	if v.Len() != 1 {
		t.Fatal("Remove of absent ID changed view")
	}
}

func TestViewCloneIndependent(t *testing.T) {
	v := NewView(3)
	v.Insert(0, Descriptor{ID: 1, Stamp: 1})
	c := v.Clone()
	c.Insert(0, Descriptor{ID: 2, Stamp: 2})
	if v.Len() != 1 {
		t.Fatal("Clone aliases original")
	}
}

// Property: after any Merge, the view invariants hold — size <= cap, no
// self, no duplicate IDs, strictly in merge order (stamp descending, then
// mix ascending, then ID ascending), which the linear Merge relies on.
func TestViewInvariants(t *testing.T) {
	r := rng.New(1)
	if err := quick.Check(func(seed uint32, nRaw, capRaw uint8) bool {
		rr := rng.New(uint64(seed) ^ r.Uint64())
		c := int(capRaw%10) + 1
		self := sim.NodeID(rr.Intn(20))
		v := NewView(c)
		for round := 0; round < 5; round++ {
			batch := make([]Descriptor, int(nRaw%30))
			for i := range batch {
				batch[i] = Descriptor{
					ID:    sim.NodeID(rr.Intn(20)),
					Stamp: int64(rr.Intn(100)),
				}
			}
			v.Merge(self, batch)
			if v.Len() > c {
				return false
			}
			seen := map[sim.NodeID]bool{}
			ds := v.Descriptors()
			for i, d := range ds {
				if d.ID == self || seen[d.ID] {
					return false
				}
				seen[d.ID] = true
				if i > 0 && mergeOrder(ds[i-1], d) >= 0 {
					return false
				}
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: merging is idempotent — merging a view's own contents changes
// nothing.
func TestViewMergeIdempotent(t *testing.T) {
	r := rng.New(2)
	if err := quick.Check(func(seed uint32) bool {
		rr := rng.New(uint64(seed) ^ r.Uint64())
		v := NewView(5)
		for i := 0; i < 8; i++ {
			v.Insert(0, Descriptor{ID: sim.NodeID(rr.Intn(10) + 1), Stamp: int64(rr.Intn(50))})
		}
		before := v.Descriptors()
		v.Merge(0, before)
		after := v.Descriptors()
		if len(before) != len(after) {
			return false
		}
		for i := range before {
			if before[i] != after[i] {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// mergeOrder is the comparator the view keeps its items in: stamp
// descending, then mix ascending, then ID ascending.
func mergeOrder(a, b Descriptor) int {
	if a.Stamp != b.Stamp {
		return cmp.Compare(b.Stamp, a.Stamp)
	}
	if ha, hb := mix(a), mix(b); ha != hb {
		return cmp.Compare(ha, hb)
	}
	return cmp.Compare(a.ID, b.ID)
}

// referenceMerge is the specification Merge must reproduce: pool the view
// and the batch without self-descriptors, sort the pool in merge order,
// then keep the first descriptor of each ID up to the view's capacity.
func referenceMerge(v *View, self sim.NodeID, batch []Descriptor) {
	pool := append([]Descriptor(nil), v.items...)
	for _, d := range batch {
		if d.ID != self {
			pool = append(pool, d)
		}
	}
	slices.SortFunc(pool, mergeOrder)
	seen := map[sim.NodeID]struct{}{}
	var out []Descriptor
	for _, d := range pool {
		if _, dup := seen[d.ID]; dup {
			continue
		}
		seen[d.ID] = struct{}{}
		out = append(out, d)
		if len(out) == v.c {
			break
		}
	}
	v.items = out
}

// Differential property: random sequences of Merge, Insert and Remove
// leave a view driven by Merge identical to one driven by referenceMerge
// after every operation. IDs and stamps come from small ranges so
// duplicate IDs, stamp ties and self-entries are common; batches are
// unsorted Cyclon/Bootstrap-shaped lists or Newscast-shaped ones (a peer's
// sorted snapshot plus the two fresh descriptors of the exchange). IDs are
// spaced by a per-sequence stride so that distinct IDs also share bits of
// Merge's kept-ID filter, partly (16) or entirely (256). Every fifth
// sequence goes past Merge's stack arrays (mergeStack): capacities up to
// 100, including the unbounded zero capacity, and batches up to 100.
func TestViewMergeMatchesReference(t *testing.T) {
	r := rng.New(14)
	const stamps = 6
	var stride sim.NodeID
	var ids int
	randID := func() sim.NodeID { return stride * sim.NodeID(r.Intn(ids)) }
	randDesc := func(base int64) Descriptor {
		return Descriptor{ID: randID(), Stamp: base + int64(r.Intn(stamps))}
	}
	for seq := 0; seq < 600; seq++ {
		stride = []sim.NodeID{1, 16, 256}[seq%3]
		ids = 32
		maxBatch := 45
		c := 1 + r.Intn(25)
		if seq%5 == 4 {
			ids, maxBatch = 160, 100
			c = r.Intn(101)
		}
		self := randID()
		got, want := NewView(c), NewView(c)
		for op := 0; op < 60; op++ {
			base := int64(op / 4) // logical time advances as in a run
			var batch []Descriptor
			kind := r.Intn(5)
			switch kind {
			case 0, 1: // unsorted batch, possibly holding self
				batch = make([]Descriptor, r.Intn(maxBatch+1))
				for i := range batch {
					batch[i] = randDesc(base - stamps)
				}
			case 2: // Newscast: sorted peer snapshot + both fresh descriptors
				peer := NewView(1 + r.Intn(max(c, 1)))
				raw := make([]Descriptor, r.Intn(maxBatch))
				for i := range raw {
					raw[i] = randDesc(base - stamps)
				}
				referenceMerge(peer, -1, raw)
				batch = peer.Descriptors()
				fresh := []Descriptor{{ID: randID(), Stamp: base}, {ID: self, Stamp: base}}
				if r.Intn(2) == 0 {
					fresh[0], fresh[1] = fresh[1], fresh[0]
				}
				batch = append(batch, fresh...)
			case 3: // Insert
				d := randDesc(base - stamps)
				got.Insert(self, d)
				referenceMerge(want, self, []Descriptor{d})
			case 4: // Remove a present or absent ID
				id := randID()
				got.Remove(id)
				want.Remove(id)
			}
			if kind <= 2 {
				in := append([]Descriptor(nil), batch...)
				got.Merge(self, batch)
				referenceMerge(want, self, batch)
				if !slices.Equal(batch, in) {
					t.Fatalf("seq %d op %d: Merge modified its batch", seq, op)
				}
			}
			if g, w := got.Descriptors(), want.Descriptors(); !slices.Equal(g, w) {
				t.Fatalf("seq %d op %d (kind %d, c=%d, self=%d, batch %v):\n got  %v\n want %v",
					seq, op, kind, c, self, batch, g, w)
			}
		}
	}
}

// BenchmarkViewMerge times one Newscast-shaped merge at c = 20: a peer's
// sorted view snapshot plus the two fresh descriptors of the exchange,
// merged into one view of a 256-node gossiping population, so stamp ties
// and view overlap evolve as in a run. The snapshot copy into a reused
// buffer is included. A warm merge allocates nothing; the perf gate
// (scripts/alloc_budget.txt) budgets it at 0 allocs/op.
func BenchmarkViewMerge(b *testing.B) {
	const n, c = 256, 20
	r := rng.New(1)
	views := make([]*View, n)
	for i := range views {
		views[i] = NewView(c)
		for len(views[i].items) < c {
			views[i].Insert(sim.NodeID(i), Descriptor{ID: sim.NodeID(r.Intn(n))})
		}
	}
	batch := make([]Descriptor, 0, c+2)
	merges := 0
	merge := func(p sim.NodeID) {
		q, _ := views[p].SampleID(r)
		stamp := int64(1 + merges/n) // one merge per node per cycle
		batch = views[q].AppendDescriptors(batch[:0])
		batch = append(batch, Descriptor{ID: p, Stamp: stamp}, Descriptor{ID: q, Stamp: stamp})
		views[p].Merge(p, batch)
		merges++
	}
	for range 2 { // fresh stamps and overlapping views before timing
		for p := range views {
			merge(sim.NodeID(p))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		merge(sim.NodeID(r.Intn(n)))
	}
}
