// Package core implements the approximate-matching pipeline of the paper
// (Alg. 1–5) as a sequential reference engine: maximum-candidate-set
// generation, local constraint checking (LCC), non-local constraint checking
// (NLCC) by token walks with work recycling, bottom-up iterative
// search-space reduction via the containment rule, exact final verification
// (100% precision / 100% recall), match enumeration and counting, and the
// top-down exploratory search mode.
//
// The distributed engine in internal/dist reimplements the same algorithms
// on a vertex-centric message-passing runtime and is differentially tested
// against this package.
package core

import (
	"approxmatch/internal/bitvec"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
)

// State is the active subgraph the search currently operates on: an active
// bit per vertex and an active bit per directed adjacency slot of the
// background graph (the ε(v) edge-state maps of Alg. 3, stored flat).
type State struct {
	g     *graph.Graph
	verts *bitvec.Vector
	edges *bitvec.Vector // indexed by directed adjacency slot
	// bounds caches the superstep partition of the state's first parallel
	// kernel call (see newSuperstep); clones start without one.
	bounds []int
}

// NewFullState returns a state with every vertex and edge active.
func NewFullState(g *graph.Graph) *State {
	s := &State{
		g:     g,
		verts: bitvec.New(g.NumVertices()),
		edges: bitvec.New(g.NumDirectedEdges()),
	}
	s.verts.SetAll()
	s.edges.SetAll()
	return s
}

// seedState returns the initial pipeline state: the full graph when
// restrict is nil, otherwise the subgraph induced by the mask — mask
// vertices plus exactly the directed slots whose both endpoints carry the
// mask. The incremental maintenance path (incremental.go) uses the latter
// to confine a run to the dirty region.
func seedState(g *graph.Graph, restrict *bitvec.Vector) *State {
	if restrict == nil {
		return NewFullState(g)
	}
	s := NewEmptyState(g)
	s.verts.Or(restrict)
	s.ForEachActiveVertex(func(v graph.VertexID) {
		base := int(g.AdjOffset(v))
		for i, w := range g.Neighbors(v) {
			if s.verts.Get(int(w)) {
				s.edges.Set(base + i)
			}
		}
	})
	return s
}

// NewEmptyState returns a state with everything inactive.
func NewEmptyState(g *graph.Graph) *State {
	return &State{
		g:     g,
		verts: bitvec.New(g.NumVertices()),
		edges: bitvec.New(g.NumDirectedEdges()),
	}
}

// Clone returns an independent copy of the state.
func (s *State) Clone() *State {
	return &State{g: s.g, verts: s.verts.Clone(), edges: s.edges.Clone()}
}

// Graph returns the underlying background graph.
func (s *State) Graph() *graph.Graph { return s.g }

// VertexActive reports whether v is active.
func (s *State) VertexActive(v graph.VertexID) bool { return s.verts.Get(int(v)) }

// DeactivateVertex removes v and all its incident directed edge slots —
// both v's own out-slots and the reverse slots its neighbors hold toward v,
// keeping the slot vector symmetric. (Out-slots alone would be enough for
// correctness, because every traversal re-checks the far endpoint's vertex
// bit, but dangling reverse slots inflate NumActiveDirectedEdges and the
// StateBytes/level-stats accounting built on it.)
//
// Every State keeps two invariants: slot symmetry (the two directed slots
// of an edge agree) and no active slot touching an inactive vertex. By
// symmetry an inactive out-slot already has an inactive reverse slot, so
// only v's active out-slots need their reverse slot looked up.
func (s *State) DeactivateVertex(v graph.VertexID) {
	s.verts.Clear(int(v))
	ns := s.g.Neighbors(v)
	base := int(s.g.AdjOffset(v))
	s.edges.ForEachInRange(base, base+len(ns), func(slot int) {
		s.edges.Clear(slot)
		u := ns[slot-base]
		if j := s.g.EdgeIndex(u, v); j >= 0 {
			s.edges.Clear(s.slot(u, j))
		}
	})
}

// deactivateVertices deactivates every vertex of vs (duplicates and
// already-inactive vertices allowed) without searching any adjacency list.
// Pass 1 clears each v's vertex bit and active out-slots and marks the far
// endpoints in scratch; pass 2 walks each marked vertex that is still
// active once and clears its active slots toward now-inactive vertices.
// scratch must have one bit per vertex and be all clear; it is left clear.
//
// The result is bit-identical to calling DeactivateVertex on each v, in
// any order: both clear exactly the vertex bits of vs and every slot with
// an endpoint in vs. Pass 1 clears the slots leaving vs. A slot (u→v) with
// v in vs and u not in vs that is active has, by symmetry, an active twin
// (v→u), so pass 1 marks u; u is active because an active slot never
// touches an inactive vertex, so pass 2 clears (u→v). Pass 2 clears no
// other slot, since before the call no active slot led to an inactive
// vertex.
func (s *State) deactivateVertices(vs []graph.VertexID, scratch *bitvec.Vector) {
	for _, v := range vs {
		s.verts.Clear(int(v))
		ns := s.g.Neighbors(v)
		base := int(s.g.AdjOffset(v))
		s.edges.ForEachInRange(base, base+len(ns), func(slot int) {
			s.edges.Clear(slot)
			scratch.Set(int(ns[slot-base]))
		})
	}
	scratch.ForEach(func(i int) {
		scratch.Clear(i)
		if !s.verts.Get(i) {
			return
		}
		u := graph.VertexID(i)
		ns := s.g.Neighbors(u)
		base := int(s.g.AdjOffset(u))
		s.edges.ForEachInRange(base, base+len(ns), func(slot int) {
			if !s.verts.Get(int(ns[slot-base])) {
				s.edges.Clear(slot)
			}
		})
	})
}

// slot returns the directed adjacency slot index for u's i-th neighbor.
func (s *State) slot(u graph.VertexID, i int) int {
	return int(s.g.AdjOffset(u)) + i
}

// EdgeActiveAt reports whether the directed slot (u, i-th neighbor) is
// active. An edge is usable only when the slot, the vertex and the neighbor
// are all active; the traversal helpers below enforce that.
func (s *State) EdgeActiveAt(u graph.VertexID, i int) bool {
	return s.edges.Get(s.slot(u, i))
}

// DeactivateEdgeAt removes the undirected edge between u and its i-th
// neighbor (both directions).
func (s *State) DeactivateEdgeAt(u graph.VertexID, i int) {
	v := s.g.Neighbors(u)[i]
	s.edges.Clear(s.slot(u, i))
	if j := s.g.EdgeIndex(v, u); j >= 0 {
		s.edges.Clear(s.slot(v, j))
	}
}

// EdgeActiveBetween reports whether the undirected edge (u,v) is active
// (checks the u-side slot).
func (s *State) EdgeActiveBetween(u, v graph.VertexID) bool {
	i := s.g.EdgeIndex(u, v)
	return i >= 0 && s.edges.Get(s.slot(u, i))
}

// ForEachActiveVertex calls fn for every active vertex in increasing order.
func (s *State) ForEachActiveVertex(fn func(v graph.VertexID)) {
	s.verts.ForEach(func(i int) { fn(graph.VertexID(i)) })
}

// forEachActiveVertexIn calls fn for every active vertex in [lo, hi), in
// increasing order — the partitioned scan the superstep kernels run per
// worker.
func (s *State) forEachActiveVertexIn(lo, hi int, fn func(v graph.VertexID)) {
	s.verts.ForEachInRange(lo, hi, func(i int) { fn(graph.VertexID(i)) })
}

// ForEachActiveNeighbor calls fn(i, w) for every active neighbor w of u
// reachable over an active edge slot; i is the neighbor's position in u's
// adjacency. The active-slot range is scanned word-at-a-time, so heavily
// pruned adjacencies cost O(words) rather than O(degree).
func (s *State) ForEachActiveNeighbor(u graph.VertexID, fn func(i int, w graph.VertexID)) {
	ns := s.g.Neighbors(u)
	base := int(s.g.AdjOffset(u))
	s.edges.ForEachInRange(base, base+len(ns), func(slot int) {
		i := slot - base
		if w := ns[i]; s.verts.Get(int(w)) {
			fn(i, w)
		}
	})
}

// ActiveDegree returns the number of active incident edges of u with active
// far endpoints.
func (s *State) ActiveDegree(u graph.VertexID) int {
	d := 0
	s.ForEachActiveNeighbor(u, func(int, graph.VertexID) { d++ })
	return d
}

// NumActiveVertices returns the number of active vertices.
func (s *State) NumActiveVertices() int { return s.verts.Count() }

// NumActiveDirectedEdges returns the number of active directed edge slots.
func (s *State) NumActiveDirectedEdges() int { return s.edges.Count() }

// VertexBits exposes the active-vertex bit vector. Callers constructing a
// state from scratch may mutate it; shared states must be treated as
// read-only.
func (s *State) VertexBits() *bitvec.Vector { return s.verts }

// EdgeBits exposes the active-edge bit vector, under the same contract as
// VertexBits.
func (s *State) EdgeBits() *bitvec.Vector { return s.edges }

// ActiveFraction returns the fraction of s's graph (vertices plus directed
// edge slots) that is still active — the per-level trajectory reported in
// LevelStats.
func ActiveFraction(s *State) float64 {
	total := s.g.NumVertices() + s.g.NumDirectedEdges()
	if total == 0 {
		return 1
	}
	return float64(s.verts.Count()+s.edges.Count()) / float64(total)
}

// StateBytes returns the memory footprint of the state's bit vectors, for
// the Fig. 11 memory accounting.
func (s *State) StateBytes() int64 { return s.verts.Bytes() + s.edges.Bytes() }

// candidateSet is the per-vertex template-vertex candidate bitmask ω(v)
// (Alg. 3). Templates have at most 64 vertices, comfortably above any
// practical search template.
type candidateSet []uint64

// initCandidates builds ω for a prototype over the active vertices of s:
// bit q of ω(v) is set when template vertex q's label accepts v's label
// (wildcard template vertices are candidates everywhere).
func initCandidates(s *State, t *pattern.Template) candidateSet {
	omega := make(candidateSet, s.g.NumVertices())
	labelBits := make(map[pattern.Label]uint64)
	var wildBits uint64
	for q := 0; q < t.NumVertices(); q++ {
		if t.Label(q) == pattern.Wildcard {
			wildBits |= 1 << uint(q)
		} else {
			labelBits[t.Label(q)] |= 1 << uint(q)
		}
	}
	s.ForEachActiveVertex(func(v graph.VertexID) {
		omega[v] = labelBits[s.g.Label(v)] | wildBits
	})
	return omega
}

func (o candidateSet) has(v graph.VertexID, q int) bool {
	return o[v]&(1<<uint(q)) != 0
}

func (o candidateSet) remove(v graph.VertexID, q int) {
	o[v] &^= 1 << uint(q)
}

func (o candidateSet) any(v graph.VertexID) bool { return o[v] != 0 }

// anyOf reports whether ω(v) intersects the template-vertex mask.
func (o candidateSet) anyOf(v graph.VertexID, mask uint64) bool {
	return o[v]&mask != 0
}
