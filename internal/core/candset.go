package core

import (
	"time"

	"approxmatch/internal/bitvec"
	"approxmatch/internal/constraint"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
)

// MaxCandidateSet computes M* (§3.1): the subgraph that could participate in
// a match of ANY prototype of t, regardless of edit-distance. It uses only
// local information: vertices must carry a template label; edges must span a
// template label pair; iteratively, a vertex must retain (a) at least one
// active neighbor compatible with some adjacency of a candidate template
// vertex and (b) active neighbors covering every mandatory neighbor of that
// candidate. Metrics are accumulated into m.CandidateMessages.
func MaxCandidateSet(g *graph.Graph, t *pattern.Template, m *Metrics) *State {
	return maxCandidateSet(g, t, nil, nil, nil, m)
}

// MaxCandidateSetWorkers is MaxCandidateSet running the fixpoint on workers
// parallel workers (0 = sequential). Results are bit-identical either way.
func MaxCandidateSetWorkers(g *graph.Graph, t *pattern.Template, workers int, m *Metrics) *State {
	pool := NewPool(workers)
	defer pool.Close()
	return maxCandidateSet(g, t, nil, pool, nil, m)
}

// candsetPrep holds the per-template lookup tables shared by the sequential
// and superstep schedules of maxCandidateSet.
type candsetPrep struct {
	labelBits map[pattern.Label]uint64
	wildBits  uint64
	pairs     *pattern.PairSet
	elSet     map[pattern.Label]bool
	elWild    bool
	prof      *constraint.MandatoryProfile
	single    bool
}

func newCandsetPrep(t *pattern.Template) *candsetPrep {
	p := &candsetPrep{
		labelBits: make(map[pattern.Label]uint64),
		pairs:     t.EdgePairSet(),
		prof:      constraint.BuildMandatoryProfile(t),
		single:    t.NumVertices() == 1,
	}
	for q := 0; q < t.NumVertices(); q++ {
		if t.Label(q) == pattern.Wildcard {
			p.wildBits |= 1 << uint(q)
		} else {
			p.labelBits[t.Label(q)] |= 1 << uint(q)
		}
	}
	p.elSet, p.elWild = t.EdgeLabelSet()
	return p
}

// maxCandidateSet is MaxCandidateSet with an optional restriction mask (the
// pipeline seeds from the induced subgraph of the mask's vertices instead of
// the full graph — the incremental-maintenance dirty region), a worker pool
// (nil = the sequential reference schedule) and a cancellation probe
// threaded through the fixpoint loops. A nil restrict is bit-identical to
// the historical full-graph seeding, counters included.
func maxCandidateSet(g *graph.Graph, t *pattern.Template, restrict *bitvec.Vector, pool *Pool, cc *CancelCheck, m *Metrics) *State {
	defer func(start time.Time) { m.CandidateTime += time.Since(start) }(time.Now())
	if pool != nil {
		return maxCandidateSetPar(g, t, restrict, pool, cc, m)
	}
	s := seedState(g, restrict)
	p := newCandsetPrep(t)

	// Candidate masks over H0 vertices, by label only. Vertices outside the
	// restriction mask stay inactive with ω = 0.
	omega := make(candidateSet, g.NumVertices())
	var unlabeled []graph.VertexID
	s.ForEachActiveVertex(func(v graph.VertexID) {
		bits := p.labelBits[g.Label(v)] | p.wildBits
		omega[v] = bits
		if bits == 0 {
			unlabeled = append(unlabeled, v)
		}
	})
	s.deactivateVertices(unlabeled, bitvec.New(g.NumVertices()))

	// Drop edges whose label pair never occurs in the template, and —
	// for edge-labeled templates — edges whose own label no template edge
	// accepts: no match of any prototype can use them. Both checks are
	// symmetric in the slot direction (pairs and edge labels are keyed by
	// the normalized undirected edge), so instead of per-bit two-sided
	// deactivation the verdicts are collected into a per-slot mask and
	// applied to the active-edge vector in one word-at-a-time intersection.
	slotOK := bitvec.New(g.NumDirectedEdges())
	s.ForEachActiveVertex(func(v graph.VertexID) {
		ns := g.Neighbors(v)
		base := int(g.AdjOffset(v))
		lv := g.Label(v)
		for i, u := range ns {
			if p.pairs.Matches(lv, g.Label(u)) && (p.elWild || p.elSet[g.EdgeLabelAt(v, i)]) {
				slotOK.Set(base + i)
			}
		}
	})
	s.edges.AndInto(s.edges, slotOK)

	for {
		changed := false
		s.ForEachActiveVertex(func(v graph.VertexID) {
			cc.Tick()
			m.CandidateMessages += int64(s.ActiveDegree(v))
			// One neighbor scan answers the common per-q questions: the
			// union of neighboring candidate masks decides every weak
			// requirement and every count-1 mandatory group in O(1) per q.
			var nbrUnion uint64
			s.ForEachActiveNeighbor(v, func(_ int, w graph.VertexID) {
				nbrUnion |= omega[w]
			})
			for q := 0; q < t.NumVertices(); q++ {
				if !omega.has(v, q) {
					continue
				}
				if !candidateViable(s, omega, p.prof, v, q, p.single, nbrUnion) {
					omega.remove(v, q)
					changed = true
				}
			}
			if !omega.any(v) {
				s.DeactivateVertex(v)
				changed = true
			}
		})
		// No inter-round edge cleanup is needed: DeactivateVertex clears
		// both directions of every incident slot (the network-traffic
		// optimization of §3.1 falls out of the symmetric edge state).
		if !changed {
			break
		}
	}
	return s
}

// candidateViable checks the max-candidate-set requirement for (v, q).
// nbrUnion is the OR of ω over v's active neighbors, computed once per
// vertex per round: existence questions distribute over the union, so the
// weak requirement and single-count mandatory groups need no neighbor scan
// at all; only multi-count groups still count neighbors.
func candidateViable(s *State, omega candidateSet, p *constraint.MandatoryProfile, v graph.VertexID, q int, single bool, nbrUnion uint64) bool {
	if single {
		return true
	}
	// Weak requirement: at least one active neighbor that can match some H0
	// neighbor of q (prototypes keep the template connected, so every match
	// vertex has at least one matched neighbor).
	if nbrUnion&p.AllNbr(q) == 0 {
		return false
	}
	// Mandatory requirement: neighbors covering every mandatory neighbor
	// group with multiplicity.
	for _, g := range p.Mandatory(q) {
		if nbrUnion&g.Mask == 0 {
			return false
		}
		if g.Count <= 1 {
			continue
		}
		found := 0
		s.ForEachActiveNeighbor(v, func(_ int, w graph.VertexID) {
			if found < g.Count && omega[w]&g.Mask != 0 {
				found++
			}
		})
		if found < g.Count {
			return false
		}
	}
	return true
}
