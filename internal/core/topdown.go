package core

import (
	"context"
	"fmt"
	"time"

	"approxmatch/internal/bitvec"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
	"approxmatch/internal/prototype"
)

// TopDownResult is the output of the exploratory (top-down) search mode
// (§4, "Top-Down Search Mode"; evaluated in §5.5 with the WDC-4 6-Clique):
// the search starts at the exact template (δ=0) and relaxes one edit at a
// time until matches appear or the budget k is exhausted.
type TopDownResult struct {
	// Set is the full prototype set up to the configured k.
	Set *prototype.Set
	// FoundDist is the edit distance at which the first matches appeared,
	// or -1 if none were found within k.
	FoundDist int
	// PrototypesSearched counts the prototypes examined across all levels.
	PrototypesSearched int
	// MatchingVertices marks the vertices participating in a match of any
	// prototype at FoundDist.
	MatchingVertices *bitvec.Vector
	// Solutions holds the per-prototype solutions at FoundDist, indexed by
	// prototype index (nil elsewhere).
	Solutions []*Solution
	// Metrics aggregates work counters; Levels records per-level stats in
	// top-down (increasing δ) order.
	Metrics Metrics
	Levels  []LevelStats
}

// RunTopDown performs exploratory search: for δ = 0, 1, ..., k it searches
// every prototype at distance δ on the maximum candidate set and stops at
// the first δ with a non-empty match set. Work recycling naturally applies
// in the top-down direction too (Obs. 2): constraints proven for a δ
// prototype are shared with the δ+1 prototypes that inherit them.
func RunTopDown(g *graph.Graph, t *pattern.Template, cfg Config) (*TopDownResult, error) {
	return RunTopDownContext(context.Background(), g, t, cfg)
}

// RunTopDownContext is RunTopDown honoring ctx: the per-prototype searches
// carry cancellation probes and the run returns ctx.Err() once the context
// fires. When ctx never fires, the results are identical to RunTopDown's.
// Budget exhaustion surfaces as a plain ErrBudgetExhausted error — the
// top-down mode has no containment guarantee to salvage a partial result
// from (an unfinished level says nothing about smaller distances).
func RunTopDownContext(ctx context.Context, g *graph.Graph, t *pattern.Template, cfg Config) (*TopDownResult, error) {
	ctx = withConfigBudget(ctx, cfg.Budget)
	cc := NewCancelCheck(ctx)
	var res *TopDownResult
	err := func() (err error) {
		defer RecoverCancel(&err)
		cc.Check()
		res, err = runTopDown(cc, g, t, cfg)
		return err
	}()
	if err != nil {
		return nil, err
	}
	return res, nil
}

func runTopDown(cc *CancelCheck, g *graph.Graph, t *pattern.Template, cfg Config) (*TopDownResult, error) {
	set, err := prototype.Generate(t, cfg.EditDistance)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	e := newEngine(g, set, cfg)
	defer e.close()
	e.cc = cc
	res := &TopDownResult{
		Set:              set,
		FoundDist:        -1,
		MatchingVertices: bitvec.New(g.NumVertices()),
		Solutions:        make([]*Solution, set.Count()),
	}
	candidate := maxCandidateSet(g, t, e.cfg.Restrict, e.pool, cc, &e.metrics)
	frac := ActiveFraction(candidate)

	for dist := 0; dist <= set.MaxDist; dist++ {
		cc.Check()
		start := time.Now()
		found := false
		var labels int64
		levelVerts := bitvec.New(g.NumVertices())
		for _, pi := range set.At(dist) {
			sol := e.searchPrototype(candidate, pi, cc, &e.metrics)
			res.PrototypesSearched++
			res.Solutions[pi] = sol
			if sol.Verts.Any() {
				found = true
				levelVerts.Or(sol.Verts)
				labels += int64(sol.Verts.Count())
			}
		}
		res.Levels = append(res.Levels, LevelStats{
			Dist:            dist,
			Prototypes:      set.CountAt(dist),
			ActiveVertices:  levelVerts.Count(),
			LabelsGenerated: labels,
			Duration:        time.Since(start),
			ActiveFraction:  frac,
			Complete:        true,
		})
		if found {
			res.FoundDist = dist
			res.MatchingVertices = levelVerts
			break
		}
	}
	// Charge the tail of the last level's amortized ticks: the level-start
	// checks above never see it.
	cc.Check()
	res.Metrics = e.metrics
	return res, nil
}
