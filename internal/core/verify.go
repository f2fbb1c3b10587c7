package core

import (
	"approxmatch/internal/bitvec"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
)

// kernelOpts toggles the redundancy-elimination features of the backtracking
// kernels. The zero value enables everything; Config.NoSymmetry/NoGuards are
// the public ablation knobs that map onto it. Both features are
// correctness-neutral: symmetry breaking explores one representative per
// match orbit and restores the full count/enumeration by the orbit size, and
// guards only skip subtrees proven matchless, so Rho, solution subgraphs and
// counts are identical with any combination of knobs.
type kernelOpts struct {
	noSymmetry bool
	noGuards   bool
}

// noDep is the minDep value of a subtree with no dependency on any earlier
// assignment (compares greater than every order position).
const noDep = int(^uint(0) >> 1)

// restrCheck is one symmetry-breaking restriction anchored at the
// later-assigned endpoint: when assigning graph vertex u at that position,
// u must be less (uLess) or greater than the image of the earlier-assigned
// template vertex `other`.
type restrCheck struct {
	other int
	uLess bool
}

// guardStore holds GuP-style failure guards: bit q,u set means "a search
// subtree rooted at assigning graph vertex u to template vertex q was fully
// explored, found no match, and depended on no earlier assignment" — under
// the store's fixed matching order and the monotone shrinking of state and
// candidate sets, re-entering that subtree can be rejected in O(1). Tables
// are allocated lazily per template vertex and charged against the run's
// byte budget; on budget refusal the store stops recording (never wrong,
// only less pruning). A nil *guardStore is valid and never matches.
type guardStore struct {
	cc       *CancelCheck
	nWords   int
	tables   [][]uint64
	disabled bool
}

func newGuardStore(nTemplate, nGraph int, cc *CancelCheck) *guardStore {
	return &guardStore{cc: cc, nWords: (nGraph + 63) / 64, tables: make([][]uint64, nTemplate)}
}

func (gs *guardStore) lookup(q int, u graph.VertexID) bool {
	if gs == nil {
		return false
	}
	t := gs.tables[q]
	return t != nil && t[u>>6]&(1<<(u&63)) != 0
}

func (gs *guardStore) set(q int, u graph.VertexID, m *Metrics) {
	if gs == nil || gs.disabled {
		return
	}
	t := gs.tables[q]
	if t == nil {
		if !gs.cc.TryChargeBytes(int64(8 * gs.nWords)) {
			gs.disabled = true
			return
		}
		t = make([]uint64, gs.nWords)
		gs.tables[q] = t
	}
	t[u>>6] |= 1 << (u & 63)
	m.GuardsSet++
}

// enumerator performs backtracking match search restricted to the active
// state and candidate sets. It powers the final verification phase (seeded
// first-match probes) and full match enumeration/counting. Matching walks
// the template in a connected order, drawing candidates from active
// adjacency, so it is exactly the token-carrying TDS search of §4 in
// sequential form.
type enumerator struct {
	s     *State
	omega candidateSet
	t     *pattern.Template
	cc    *CancelCheck
	m     *Metrics

	order    []int            // template vertices in assignment order
	assigned []graph.VertexID // template vertex -> graph vertex
	isSet    []bool
	depth    []int // template vertex -> its position in order, when set

	// Symmetry breaking (GraphPi restriction sets): restrs[idx] holds the
	// order constraints to check when assigning order[idx]; auts is the full
	// automorphism group for orbit expansion, aut its size (1 = disabled).
	restrs [][]restrCheck
	auts   [][]int
	aut    int64

	// Failure-guard pruning (GuP): guards is consulted per candidate and
	// populated after fully-explored matchless subtrees whose pruning
	// depended on no assignment earlier than the subtree root. found and
	// minDep track the current subtree's outcome: whether any match
	// completed inside it, and the smallest order position of an earlier
	// assignment its pruning read (candidate sourcing, injectivity
	// conflicts, failed edge/restriction checks).
	guards *guardStore
	exp    *int64 // node-expansion counter (a Metrics field)
	found  bool
	minDep int
}

func newEnumerator(s *State, omega candidateSet, t *pattern.Template, cc *CancelCheck, m *Metrics) *enumerator {
	return &enumerator{
		s:        s,
		omega:    omega,
		t:        t,
		cc:       cc,
		m:        m,
		assigned: make([]graph.VertexID, t.NumVertices()),
		isSet:    make([]bool, t.NumVertices()),
		depth:    make([]int, t.NumVertices()),
		aut:      1,
		exp:      &m.EnumExpansions,
		minDep:   noDep,
	}
}

// dep records that the current subtree's outcome depends on the assignment
// at order position d.
func (e *enumerator) dep(d int) {
	if d < e.minDep {
		e.minDep = d
	}
}

// applySymmetry installs the template's restriction set against the already
// chosen order. Each restriction A<B is anchored at whichever endpoint the
// order assigns later, so it is checked the moment both images exist.
func (e *enumerator) applySymmetry() {
	auts := pattern.Automorphisms(e.t)
	if len(auts) <= 1 {
		return
	}
	e.auts = auts
	e.aut = int64(len(auts))
	rs := pattern.RestrictionsFor(e.t.NumVertices(), auts)
	pos := make([]int, e.t.NumVertices())
	for i, q := range e.order {
		pos[q] = i
	}
	e.restrs = make([][]restrCheck, len(e.order))
	for _, r := range rs {
		if pos[r.A] > pos[r.B] {
			e.restrs[pos[r.A]] = append(e.restrs[pos[r.A]], restrCheck{other: r.B, uLess: true})
		} else {
			e.restrs[pos[r.B]] = append(e.restrs[pos[r.B]], restrCheck{other: r.A, uLess: false})
		}
	}
}

// orderFrom returns a template vertex order beginning with seeds in which
// every later vertex is adjacent to an earlier one.
func orderFrom(t *pattern.Template, seeds []int) []int {
	n := t.NumVertices()
	order := make([]int, 0, n)
	in := make([]bool, n)
	for _, q := range seeds {
		order = append(order, q)
		in[q] = true
	}
	for len(order) < n {
		bestQ, bestScore := -1, -1
		for q := 0; q < n; q++ {
			if in[q] {
				continue
			}
			score := 0
			for _, r := range t.Neighbors(q) {
				if in[r] {
					score++
				}
			}
			if score > bestScore {
				bestQ, bestScore = q, score
			}
		}
		order = append(order, bestQ)
		in[bestQ] = true
	}
	return order
}

// run explores all completions of the current partial assignment; fn
// receives each complete match (slice reused) and returns false to stop.
// run returns false when fn stopped the search.
func (e *enumerator) run(idx int, fn func([]graph.VertexID) bool) bool {
	if idx == len(e.order) {
		e.found = true
		return fn(e.assigned)
	}
	q := e.order[idx]
	// Pick an assigned template neighbor to source candidates from. The
	// candidate stream reads that neighbor's image, so the subtree depends
	// on its position.
	var src graph.VertexID
	hasSrc := false
	for _, r := range e.t.Neighbors(q) {
		if e.isSet[r] {
			src = e.assigned[r]
			hasSrc = true
			e.dep(e.depth[r])
			break
		}
	}
	try := func(u graph.VertexID) bool {
		e.cc.Tick()
		if !e.omega.has(u, q) {
			return true
		}
		if e.guards.lookup(q, u) {
			e.m.GuardHits++
			return true
		}
		for _, rc := range e.restrs[idx] {
			o := e.assigned[rc.other]
			if rc.uLess == (u >= o) {
				e.dep(e.depth[rc.other])
				return true
			}
		}
		// Injectivity: u must not already be the image of another template
		// vertex (≤|T| assigned slots, so a linear scan beats a map).
		for r, set := range e.isSet {
			if set && e.assigned[r] == u {
				e.dep(e.depth[r])
				return true
			}
		}
		e.m.VerifyMessages++
		// All template edges from q to already-placed vertices must be
		// active graph edges with acceptable edge labels.
		for _, r := range e.t.Neighbors(q) {
			if !e.isSet[r] {
				continue
			}
			if !e.s.EdgeActiveBetween(u, e.assigned[r]) || !templateEdgeLabelOK(e.s, e.t, q, r, u, e.assigned[r]) {
				e.dep(e.depth[r])
				return true
			}
		}
		e.assigned[q] = u
		e.isSet[q] = true
		e.depth[q] = idx
		*e.exp++
		savedFound, savedMin := e.found, e.minDep
		e.found, e.minDep = false, noDep
		ok := e.run(idx+1, fn)
		subFound, subMin := e.found, e.minDep
		e.isSet[q] = false
		// Guardable iff the subtree was fully explored, matchless, and its
		// pruning depended on nothing assigned before this position.
		if ok && !subFound && subMin >= idx {
			e.guards.set(q, u, e.m)
		}
		e.found = savedFound || subFound
		e.minDep = savedMin
		e.dep(subMin)
		return ok
	}
	if e.restrs == nil {
		// No symmetry breaking for this template/order: keep restrs
		// indexable without a nil check per candidate.
		e.restrs = make([][]restrCheck, len(e.order))
	}
	if hasSrc {
		cont := true
		e.s.ForEachActiveNeighbor(src, func(_ int, u graph.VertexID) {
			if cont {
				cont = try(u)
			}
		})
		return cont
	}
	// No placed neighbor (only possible for the very first vertex): scan
	// all active vertices.
	cont := true
	e.s.ForEachActiveVertex(func(u graph.VertexID) {
		if cont {
			cont = try(u)
		}
	})
	return cont
}

// seed pre-assigns template vertex q to graph vertex u at order position
// pos; it returns false if the seed is inconsistent.
func (e *enumerator) seed(q int, u graph.VertexID, pos int) bool {
	if !e.omega.has(u, q) || !e.s.VertexActive(u) {
		return false
	}
	for r, set := range e.isSet {
		if set && r != q && e.assigned[r] == u {
			return false
		}
	}
	for _, r := range e.t.Neighbors(q) {
		if !e.isSet[r] {
			continue
		}
		if !e.s.EdgeActiveBetween(u, e.assigned[r]) {
			return false
		}
		if !templateEdgeLabelOK(e.s, e.t, q, r, u, e.assigned[r]) {
			return false
		}
	}
	e.assigned[q] = u
	e.isSet[q] = true
	e.depth[q] = pos
	return true
}

// templateEdgeLabelOK checks that the graph edge realizing template edge
// (q,r) carries an acceptable edge label.
func templateEdgeLabelOK(s *State, t *pattern.Template, q, r int, gu, gv graph.VertexID) bool {
	tl, ok := t.EdgeLabelBetween(q, r)
	if !ok {
		return false
	}
	if tl == pattern.Wildcard {
		return true
	}
	gl, ok := s.Graph().EdgeLabelBetween(gu, gv)
	return ok && gl == tl
}

// findSeeded searches for one match with the given (template vertex → graph
// vertex) seeds; it returns the match or nil. A non-nil guards store must
// have been built for the same matching order orderFrom(t, seedQ) and may
// only be reused while state and candidates shrink monotonically; guards
// never change which first witness is found — they skip subtrees proven to
// hold no match at all.
func findSeeded(s *State, omega candidateSet, t *pattern.Template, cc *CancelCheck, m *Metrics, guards *guardStore, seedQ []int, seedV []graph.VertexID) []graph.VertexID {
	e := newEnumerator(s, omega, t, cc, m)
	e.exp = &m.VerifyExpansions
	e.guards = guards
	for i, q := range seedQ {
		if !e.seed(q, seedV[i], i) {
			return nil
		}
	}
	e.order = orderFrom(t, seedQ)
	var found []graph.VertexID
	e.run(len(seedQ), func(match []graph.VertexID) bool {
		found = append([]graph.VertexID(nil), match...)
		return false
	})
	return found
}

// verifyExact is the final verification phase of SEARCH_PROTOTYPE: it
// reduces state and candidates to exactly the vertices and edges
// participating in at least one match of t (Def. 2), guaranteeing 100%
// precision on top of the recall-safe pruning phases. It returns the
// participating directed-edge bit vector.
//
// verifyExact keeps one-witness semantics: no symmetry breaking (a seeded
// probe must be free to find ANY witness through its seed), only failure
// guards, which are shared across the vertex phase's probes per seed
// template vertex (fixed matching order per q; state/omega only shrink).
func verifyExact(s *State, omega candidateSet, t *pattern.Template, cc *CancelCheck, m *Metrics, opts kernelOpts) *bitvec.Vector {
	g := s.Graph()
	vmark := make(candidateSet, g.NumVertices())
	emark := bitvec.New(g.NumDirectedEdges())

	var stores []*guardStore
	if !opts.noGuards {
		stores = make([]*guardStore, t.NumVertices())
		for q := range stores {
			stores[q] = newGuardStore(t.NumVertices(), g.NumVertices(), cc)
		}
	}

	markMatch := func(match []graph.VertexID) {
		for tq, gv := range match {
			vmark[gv] |= 1 << uint(tq)
		}
		for _, e := range t.Edges() {
			u, v := match[e.I], match[e.J]
			if i := g.EdgeIndex(u, v); i >= 0 {
				emark.Set(int(g.AdjOffset(u)) + i)
			}
			if i := g.EdgeIndex(v, u); i >= 0 {
				emark.Set(int(g.AdjOffset(v)) + i)
			}
		}
	}

	// Vertex phase: certify or refute every (vertex, candidate) pair.
	s.ForEachActiveVertex(func(v graph.VertexID) {
		cc.Tick()
		for q := 0; q < t.NumVertices(); q++ {
			if !omega.has(v, q) || vmark.has(v, q) {
				continue
			}
			m.VerifySearches++
			var gs *guardStore
			if stores != nil {
				gs = stores[q]
			}
			if match := findSeeded(s, omega, t, cc, m, gs, []int{q}, []graph.VertexID{v}); match != nil {
				markMatch(match)
			} else {
				omega.remove(v, q)
			}
		}
		if !omega.any(v) {
			s.DeactivateVertex(v)
		}
	})

	// Edge phase: certify or refute every remaining active edge. Probes are
	// 2-seeded with per-orientation matching orders, so no guard store
	// applies here.
	s.ForEachActiveVertex(func(v graph.VertexID) {
		cc.Tick()
		base := int(g.AdjOffset(v))
		s.ForEachActiveNeighbor(v, func(i int, u graph.VertexID) {
			if v > u || emark.Get(base+i) {
				return
			}
			participates := false
			for _, te := range t.Edges() {
				for _, ori := range [2][2]int{{te.I, te.J}, {te.J, te.I}} {
					if !vmark.has(v, ori[0]) || !vmark.has(u, ori[1]) {
						continue
					}
					m.VerifySearches++
					if match := findSeeded(s, omega, t, cc, m, nil, []int{ori[0], ori[1]}, []graph.VertexID{v, u}); match != nil {
						markMatch(match)
						participates = true
					}
					if participates {
						break
					}
				}
				if participates {
					break
				}
			}
			if !participates {
				s.DeactivateEdgeAt(v, i)
			}
		})
	})
	return emark
}

// countMatches enumerates every match of t within the active state and
// returns the total number of distinct vertex mappings. With symmetry
// breaking enabled it explores one representative per automorphism orbit
// and multiplies by the orbit size — the result is identical either way.
func countMatches(s *State, omega candidateSet, t *pattern.Template, cc *CancelCheck, m *Metrics, opts kernelOpts) int64 {
	e := newEnumerator(s, omega, t, cc, m)
	e.order = orderFrom(t, []int{rootVertex(t)})
	if !opts.noSymmetry {
		e.applySymmetry()
	}
	if !opts.noGuards {
		e.guards = newGuardStore(t.NumVertices(), s.Graph().NumVertices(), cc)
	}
	var count int64
	e.run(0, func([]graph.VertexID) bool {
		count++
		return true
	})
	return count * e.aut
}

// enumerateMatches calls fn for every match; fn returns false to stop. The
// match slice is reused between calls. With symmetry breaking the
// enumeration order differs from the naive kernel's, but the multiset of
// mappings is identical: each restricted representative is expanded through
// the full automorphism group.
func enumerateMatches(s *State, omega candidateSet, t *pattern.Template, cc *CancelCheck, m *Metrics, opts kernelOpts, fn func([]graph.VertexID) bool) {
	e := newEnumerator(s, omega, t, cc, m)
	e.order = orderFrom(t, []int{rootVertex(t)})
	if !opts.noSymmetry {
		e.applySymmetry()
	}
	if !opts.noGuards {
		e.guards = newGuardStore(t.NumVertices(), s.Graph().NumVertices(), cc)
	}
	if e.aut <= 1 {
		e.run(0, fn)
		return
	}
	buf := make([]graph.VertexID, t.NumVertices())
	e.run(0, func(match []graph.VertexID) bool {
		for _, g := range e.auts {
			for q := range buf {
				buf[q] = match[g[q]]
			}
			if !fn(buf) {
				return false
			}
		}
		return true
	})
}

// rootVertex picks the enumeration root: highest degree wins.
func rootVertex(t *pattern.Template) int {
	best := 0
	for q := 1; q < t.NumVertices(); q++ {
		if t.Degree(q) > t.Degree(best) {
			best = q
		}
	}
	return best
}
