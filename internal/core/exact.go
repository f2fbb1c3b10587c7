package core

import (
	"time"

	"approxmatch/internal/constraint"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
)

// ExactMatch runs the exact constraint-checking pipeline for a single
// template t on g: candidate-set generation, LCC, NLCC and final
// verification — the PruneJuice-style exact search that both the naïve
// baseline (§5.3) and the per-prototype search build on. No state is shared
// with other searches: no recycling cache, no containment.
func ExactMatch(g *graph.Graph, t *pattern.Template, freqOrdering, countMatches bool) (*Solution, Metrics) {
	var m Metrics
	s := maxCandidateSet(g, t, nil, nil, nil, &m)
	var freq constraint.LabelFreq
	if freqOrdering {
		freq = make(constraint.LabelFreq)
		for l, c := range g.LabelFrequencies() {
			freq[l] = c
		}
		freq[pattern.Wildcard] = int64(g.NumVertices())
	}
	prof := buildLocalProfile(t)
	walks := preparedWalks(g, t, freq)
	sol := searchTemplateOn(s, t, prof, walks, nil, nil, nil, countMatches, &m, kernelOpts{})
	return sol, m
}

// preparedWalks generates, orients and orders the pruning walks for t:
// orientation picks cheap initiators by label frequency, and ordering uses
// the expected-token-traffic estimator so cheap walks prune before
// expensive ones run. A nil frequency map disables both.
func preparedWalks(g *graph.Graph, t *pattern.Template, freq constraint.LabelFreq) []*constraint.Walk {
	pruning, _ := constraint.Generate(t)
	if freq == nil {
		constraint.OrderWalks(t, pruning, nil)
		return pruning
	}
	pruning = constraint.OrientAll(t, pruning, freq)
	avg := 0.0
	if n := g.NumVertices(); n > 0 {
		avg = float64(2*g.NumEdges()) / float64(n)
	}
	ce := constraint.NewCostEstimator(int64(g.NumVertices()), avg, freq)
	constraint.OrderWalksEstimated(t, pruning, ce)
	return pruning
}

// searchTemplateOn implements Alg. 2 for one template on a given starting
// state (which is not modified): LCC fixpoint, NLCC pruning walks with
// re-LCC after eliminations, then exact final verification. A non-nil pool
// runs the pruning kernels on the superstep schedule; the verification and
// counting phases stay on the calling goroutine.
func searchTemplateOn(level *State, t *pattern.Template, prof *localProfile, walks []*constraint.Walk, cache *Cache, pool *Pool, cc *CancelCheck, count bool, m *Metrics, opts kernelOpts) *Solution {
	m.PrototypesSearched++
	// Charge the search's two big allocations — the state clone and the
	// candidate masks — against the run's byte budget before making them.
	cc.ChargeBytes(level.StateBytes() + 8*int64(level.g.NumVertices()))
	s := level.Clone()
	omega := initCandidates(s, t)
	phase := time.Now()
	lcc(s, omega, prof, pool, cc, m)
	m.LCCTime += time.Since(phase)

	for _, w := range walks {
		cc.Tick()
		phase = time.Now()
		changed := nlcc(s, omega, t, w, cache, pool, cc, m)
		m.NLCCTime += time.Since(phase)
		if changed {
			phase = time.Now()
			lcc(s, omega, prof, pool, cc, m)
			m.LCCTime += time.Since(phase)
		}
	}

	sol := &Solution{Proto: -1, MatchCount: -1}
	phase = time.Now()
	if constraint.Analyze(t).LocalSufficient {
		sol.Edges = cleanEdges(s)
		sol.Verts = s.VertexBits().Clone()
	} else {
		sol.Edges = verifyExact(s, omega, t, cc, m, opts)
		sol.Verts = s.VertexBits().Clone()
	}
	m.VerifyTime += time.Since(phase)
	if count {
		sol.MatchCount = countMatches(s, omega, t, cc, m, opts)
	}
	return sol
}
