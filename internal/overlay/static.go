package overlay

import (
	"gossipopt/internal/rng"
	"gossipopt/internal/sim"
)

// Static is a fixed-neighbor PeerSampler: the topology service reduced to a
// static graph. The paper names several alternatives to peer sampling — a
// mesh, a star for master-slave — which are all instances of Static with
// different neighbor sets. Static implements the protocol contract as a
// no-op so it can occupy a protocol slot interchangeably with Newscast.
type Static struct {
	self  sim.NodeID
	peers []sim.NodeID
}

// Compile-time guard for the two-phase contract (see Newscast's note).
var _ sim.Proposer = (*Static)(nil)

// NewStatic creates a static sampler for self with the given out-links.
func NewStatic(self sim.NodeID, peers []sim.NodeID) *Static {
	return &Static{self: self, peers: append([]sim.NodeID(nil), peers...)}
}

// SamplePeer implements PeerSampler.
func (s *Static) SamplePeer(r *rng.RNG) (sim.NodeID, bool) {
	if len(s.peers) == 0 {
		return 0, false
	}
	return s.peers[r.Intn(len(s.peers))], true
}

// Neighbors implements PeerSampler.
func (s *Static) Neighbors() []sim.NodeID {
	return append([]sim.NodeID(nil), s.peers...)
}

// Propose implements sim.Proposer as a no-op: static topologies need no
// maintenance, and by speaking the two-phase contract they keep a node's
// whole stack on the parallel propose path.
func (s *Static) Propose(*sim.Node, *sim.Proposals) {}

// Topology builds the out-link lists for n nodes (indexed 0..n-1).
type Topology func(r *rng.RNG, n int) [][]int

// FullMesh connects every node to every other node (the "full information"
// extreme of the paper's spectrum).
func FullMesh(_ *rng.RNG, n int) [][]int {
	out := make([][]int, n)
	for i := range out {
		for j := 0; j < n; j++ {
			if j != i {
				out[i] = append(out[i], j)
			}
		}
	}
	return out
}

// Ring connects each node to its two lattice neighbors.
func Ring(_ *rng.RNG, n int) [][]int {
	out := make([][]int, n)
	for i := range out {
		if n <= 1 {
			continue
		}
		prev := (i - 1 + n) % n
		next := (i + 1) % n
		if prev == next { // n == 2
			out[i] = []int{next}
		} else {
			out[i] = []int{prev, next}
		}
	}
	return out
}

// Star connects node 0 (the master) to all others and every other node only
// to node 0 — the centralized master-slave shape the paper contrasts with.
func Star(_ *rng.RNG, n int) [][]int {
	out := make([][]int, n)
	for i := 1; i < n; i++ {
		out[0] = append(out[0], i)
		out[i] = []int{0}
	}
	return out
}

// Grid arranges nodes in a near-square 2-D mesh with 4-neighborhoods
// (the "mesh topology connecting nodes responsible for different partitions"
// alternative mentioned in the paper).
func Grid(_ *rng.RNG, n int) [][]int {
	cols := 1
	for cols*cols < n {
		cols++
	}
	out := make([][]int, n)
	at := func(r, c int) int { return r*cols + c }
	for i := 0; i < n; i++ {
		r, c := i/cols, i%cols
		if r > 0 {
			out[i] = append(out[i], at(r-1, c))
		}
		if c > 0 {
			out[i] = append(out[i], at(r, c-1))
		}
		if c+1 < cols && at(r, c+1) < n {
			out[i] = append(out[i], at(r, c+1))
		}
		if at(r+1, c) < n {
			out[i] = append(out[i], at(r+1, c))
		}
	}
	return out
}

// KRegularRandom gives every node k distinct random out-links (k is capped
// at n-1). This approximates the stationary Newscast overlay.
func KRegularRandom(k int) Topology {
	return func(r *rng.RNG, n int) [][]int {
		if k > n-1 {
			k = n - 1
		}
		out := make([][]int, n)
		for i := 0; i < n; i++ {
			for _, idx := range r.Sample(n-1, k) {
				// Map [0, n-2] onto [0, n-1] \ {i}.
				j := idx
				if j >= i {
					j++
				}
				out[i] = append(out[i], j)
			}
		}
		return out
	}
}

// SmallWorld is the Watts–Strogatz construction: a ring lattice where each
// node links to its k nearest neighbors (k even), with each link rewired to
// a uniform random target with probability beta. Kennedy's PSO topology
// studies [8] motivate including it.
func SmallWorld(k int, beta float64) Topology {
	return func(r *rng.RNG, n int) [][]int {
		if k >= n {
			k = n - 1
		}
		out := make([][]int, n)
		for i := 0; i < n; i++ {
			for d := 1; d <= k/2; d++ {
				j := (i + d) % n
				if r.Bool(beta) {
					for {
						j = r.Intn(n)
						if j != i {
							break
						}
					}
				}
				out[i] = append(out[i], j)
				out[j] = append(out[j], i)
			}
		}
		// Deduplicate.
		for i := range out {
			seen := map[int]bool{}
			uniq := out[i][:0]
			for _, j := range out[i] {
				if !seen[j] && j != i {
					seen[j] = true
					uniq = append(uniq, j)
				}
			}
			out[i] = uniq
		}
		return out
	}
}

// InitStatic wires Static samplers built from topo (drawing from r) into
// protocol slot `slot` of every node in nodes; topology index i is
// nodes[i].
func InitStatic(nodes []*sim.Node, r *rng.RNG, slot int, topo Topology) {
	links := topo(r, len(nodes))
	for i, n := range nodes {
		peers := make([]sim.NodeID, 0, len(links[i]))
		for _, j := range links[i] {
			peers = append(peers, nodes[j].ID)
		}
		st := NewStatic(n.ID, peers)
		for len(n.Protocols) <= slot {
			n.Protocols = append(n.Protocols, nil)
		}
		n.Protocols[slot] = st
	}
}
