package core

import (
	"context"

	"approxmatch/internal/bitvec"
	"approxmatch/internal/constraint"
	"approxmatch/internal/pattern"
)

// SearchOn runs the full single-template search (Alg. 2) on an explicit
// starting state, exposing the per-prototype engine step to other packages
// (the distributed runtime's parallel-prototype-search mode and the
// deployment-size experiments). The level state is not modified. The
// pruning kernels run on workers parallel workers (0 = sequential). A fired
// ctx aborts the search with a cancellation panic recovered by
// RecoverCancel — callers that pass a cancellable context must defer it.
func SearchOn(ctx context.Context, level *State, t *pattern.Template, cache *Cache, freq constraint.LabelFreq, count bool, workers int, m *Metrics) *Solution {
	cc := NewCancelCheck(ctx)
	cc.Check()
	pool := NewPool(workers)
	defer pool.Close()
	sol := searchTemplateOn(level, t, preparedProfile(t), preparedWalks(level.Graph(), t, freq), cache, pool, cc, count, m, kernelOpts{})
	// Charge the tail of the amortized ticks: phases shorter than one probe
	// interval must not be free, or small-graph work never hits the budget.
	cc.Check()
	return sol
}

// preparedProfile builds the local-constraint profile for t.
func preparedProfile(t *pattern.Template) *localProfile { return buildLocalProfile(t) }

// FinalizeExact reduces an already-pruned state (recall-safe, possibly
// imprecise) to the exact solution subgraph of t: it rebuilds candidates,
// re-runs the LCC fixpoint and applies the exact verification phase. It
// mutates s and returns the participating directed-edge bit vector. The
// distributed engine calls this after gathering its pruned subgraph — the
// in-process analogue of the paper's "reload the pruned graph on a smaller
// deployment" step. The LCC fixpoint runs on workers parallel workers
// (0 = sequential). A fired ctx aborts with a cancellation panic recovered
// by RecoverCancel.
func FinalizeExact(ctx context.Context, s *State, t *pattern.Template, workers int, m *Metrics) *bitvec.Vector {
	cc := NewCancelCheck(ctx)
	cc.Check()
	pool := NewPool(workers)
	defer pool.Close()
	omega := initCandidates(s, t)
	prof := buildLocalProfile(t)
	lcc(s, omega, prof, pool, cc, m)
	var edges *bitvec.Vector
	if constraint.Analyze(t).LocalSufficient {
		edges = cleanEdges(s)
	} else {
		edges = verifyExact(s, omega, t, cc, m, kernelOpts{})
	}
	cc.Check() // charge the tail of the amortized ticks
	return edges
}

// FinalizeSolution runs FinalizeExact on s (mutating it) and captures the
// surviving vertices and, when count is set, the match count. It packages
// the distributed engine's gather-and-finalize step.
func FinalizeSolution(ctx context.Context, s *State, t *pattern.Template, workers int, count bool, m *Metrics) *Solution {
	sol := &Solution{Proto: -1, MatchCount: -1}
	sol.Edges = FinalizeExact(ctx, s, t, workers, m)
	sol.Verts = s.VertexBits().Clone()
	if count {
		sol.MatchCount = CountOn(ctx, s, t, m)
	}
	return sol
}

// CountOn enumerates matches of t restricted to the given exact state. A
// fired ctx aborts with a cancellation panic recovered by RecoverCancel.
func CountOn(ctx context.Context, s *State, t *pattern.Template, m *Metrics) int64 {
	cc := NewCancelCheck(ctx)
	cc.Check()
	omega := initCandidates(s, t)
	n := countMatches(s, omega, t, cc, m, kernelOpts{})
	cc.Check() // charge the tail of the amortized ticks
	return n
}
