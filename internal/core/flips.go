package core

import (
	"context"
	"fmt"

	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
	"approxmatch/internal/prototype"
)

// FlipResult reports an edge-flip search (§3.1's "edge 'flip'" extension):
// each flip variant is its own exact search with its own candidate set
// (flips can introduce label pairs the deletion candidate set excluded), so
// the containment rule does not apply; the work-recycling cache still
// shares constraint results across flips.
type FlipResult struct {
	// Base is the exact search of the original template.
	Base *Solution
	// Flips lists the flip prototypes, aligned with Solutions.
	Flips []*prototype.Flip
	// Solutions holds the exact solution subgraph of each flip.
	Solutions []*Solution
	// Metrics aggregates the work across all searches.
	Metrics Metrics
}

// MatchFlips searches the template and all of its single-edge-flip variants
// exactly.
func MatchFlips(g *graph.Graph, t *pattern.Template, cfg Config) (*FlipResult, error) {
	return MatchFlipsContext(context.Background(), g, t, cfg)
}

// MatchFlipsContext is MatchFlips honoring ctx: every per-variant search
// carries a cancellation probe and the run returns ctx.Err() once the
// context fires. When ctx never fires, the results are identical to
// MatchFlips'.
func MatchFlipsContext(ctx context.Context, g *graph.Graph, t *pattern.Template, cfg Config) (*FlipResult, error) {
	ctx = withConfigBudget(ctx, cfg.Budget)
	cc := NewCancelCheck(ctx)
	var res *FlipResult
	err := func() (err error) {
		defer RecoverCancel(&err)
		cc.Check()
		res, err = matchFlips(cc, g, t, cfg)
		return err
	}()
	if err != nil {
		return nil, err
	}
	return res, nil
}

func matchFlips(cc *CancelCheck, g *graph.Graph, t *pattern.Template, cfg Config) (*FlipResult, error) {
	flips, err := prototype.Flips(t)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	res := &FlipResult{Flips: flips}
	var cache *Cache
	if cfg.WorkRecycling {
		if cfg.SharedCache != nil {
			cache = cfg.SharedCache
		} else {
			cache = NewCacheBytes(g.NumVertices(), cfg.CacheBytes)
		}
	}
	pool := NewPool(cfg.Workers)
	defer pool.Close()
	search := func(tpl *pattern.Template) *Solution {
		cc.Check()
		var m Metrics
		s := maxCandidateSet(g, tpl, cfg.Restrict, pool, cc, &m)
		var freq map[pattern.Label]int64
		if cfg.FrequencyOrdering {
			freq = g.LabelFrequencies()
			freq[pattern.Wildcard] = int64(g.NumVertices())
		}
		sol := searchTemplateOn(s, tpl, buildLocalProfile(tpl), preparedWalks(g, tpl, freq), cache, pool, cc, cfg.CountMatches, &m, cfg.kernel())
		res.Metrics.Add(&m)
		return sol
	}
	res.Base = search(t)
	for _, f := range flips {
		res.Solutions = append(res.Solutions, search(f.Template))
	}
	if cache != nil {
		res.Metrics.CacheEvictions += cache.Evictions()
	}
	return res, nil
}

// TotalMatchCount sums counts across the base and every flip (-1 when not
// counted).
func (r *FlipResult) TotalMatchCount() int64 {
	if r.Base.MatchCount < 0 {
		return -1
	}
	total := r.Base.MatchCount
	for _, sol := range r.Solutions {
		if sol.MatchCount < 0 {
			return -1
		}
		total += sol.MatchCount
	}
	return total
}
