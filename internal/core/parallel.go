package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"approxmatch/internal/bitvec"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
	"approxmatch/internal/prototype"
)

// RunParallel is the pipeline of Run with multi-level parallelism enabled
// (§4, "Multi-level Parallelism" — Fig. 8's scenario Z): the prototypes of
// each edit-distance level are searched concurrently on replicas of the
// level state, up to `parallelism` at a time, sharing one work-recycling
// cache. Results are bit-identical to Run's, which is parallelism 1.
func RunParallel(g *graph.Graph, t *pattern.Template, cfg Config, parallelism int) (*Result, error) {
	return RunParallelContext(context.Background(), g, t, cfg, parallelism)
}

// RunParallelContext is RunParallel honoring ctx: each prototype-search
// goroutine carries its own cancellation probe, so a fired context stops
// every in-flight search and the run returns ctx.Err(). When ctx never
// fires, the results are identical to RunParallel's (and Run's).
//
// Budget exhaustion returns a non-nil Partial result alongside the
// ErrBudgetExhausted error, exactly like RunContext. A panic inside a
// prototype-search goroutine is returned as a *PanicError instead of
// crashing the process.
func RunParallelContext(ctx context.Context, g *graph.Graph, t *pattern.Template, cfg Config, parallelism int) (*Result, error) {
	ctx = withConfigBudget(ctx, cfg.Budget)
	cc := NewCancelCheck(ctx)
	var res *Result
	err := func() (err error) {
		defer RecoverCancel(&err)
		cc.Check()
		res, err = runParallel(cc, g, t, cfg, parallelism)
		return err
	}()
	if err != nil && (res == nil || !res.Partial) {
		return nil, err
	}
	return res, err
}

// testHookPrototypeSearch, when set, runs at the start of every
// prototype-search goroutine — the seam the panic-isolation tests use to
// inject a worker panic into a live query.
var testHookPrototypeSearch func(proto int)

func runParallel(cc *CancelCheck, g *graph.Graph, t *pattern.Template, cfg Config, parallelism int) (*Result, error) {
	if parallelism < 1 {
		parallelism = 1
	}
	if cfg.Restrict != nil && cfg.Restrict.Len() != g.NumVertices() {
		return nil, fmt.Errorf("core: restrict mask has %d bits for %d vertices",
			cfg.Restrict.Len(), g.NumVertices())
	}
	set, err := prototype.Generate(t, cfg.EditDistance)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	e := newEngine(g, set, cfg)
	defer e.close()
	e.cc = cc
	// Pre-build walks and profiles serially: the engine's lazy maps are
	// not synchronized.
	for pi := range set.Protos {
		e.walksFor(pi)
		e.profileFor(pi)
	}

	res := &Result{
		Graph:     g,
		Template:  t,
		Set:       set,
		Rho:       bitvec.NewMatrix(g.NumVertices(), set.Count()),
		Solutions: make([]*Solution, set.Count()),
	}
	// Candidate-set generation runs under the budget too; exhaustion there
	// yields a Partial result with zero completed levels (Candidate nil).
	if err := func() (err error) {
		defer recoverBudgetAbort(&err)
		res.Candidate = maxCandidateSet(g, t, e.cfg.Restrict, e.pool, cc, &e.metrics)
		return nil
	}(); err != nil {
		return e.finishPartial(res, err)
	}

	level := res.Candidate
	for dist := set.MaxDist; dist >= 0; dist-- {
		next, err := e.runLevelParallel(res, level, dist, cc, parallelism)
		if err != nil {
			if errors.Is(err, ErrBudgetExhausted) {
				return e.finishPartial(res, err)
			}
			return nil, err
		}
		level = next
	}
	e.foldCache()
	res.Metrics = e.metrics
	return res, nil
}

// runLevelParallel searches every prototype of one edit-distance level,
// up to parallelism at a time, and commits the results — solutions, Rho
// columns, level stats and the next level's containment state — only once
// the whole level has completed. A budget abort mid-level therefore leaves
// res exactly as it was before the level started (the level's half-computed
// solutions are discarded), which is what makes the Partial contract
// airtight: committed levels are always whole levels.
//
// Searches take their slot before they are spawned, so at parallelism 1
// prototypes run strictly in index order and every counter — shared-cache
// hits included — is deterministic.
func (e *engine) runLevelParallel(res *Result, level *State, dist int, cc *CancelCheck, parallelism int) (next *State, err error) {
	defer recoverBudgetAbort(&err)
	cc.Check()
	set := res.Set
	start := time.Now()
	frac := ActiveFraction(level)
	ids := set.At(dist)
	sols := make([]*Solution, len(ids))
	metrics := make([]Metrics, len(ids))
	sem := make(chan struct{}, parallelism)
	var wg sync.WaitGroup
	var abortOnce sync.Once
	var aborted atomic.Bool
	var abortErr error
	for idx, pi := range ids {
		sem <- struct{}{}
		if aborted.Load() {
			// A sibling already doomed the level; don't start more work.
			<-sem
			break
		}
		wg.Add(1)
		go func(idx, pi int) {
			defer wg.Done()
			defer func() { <-sem }()
			// A fired context or exhausted budget aborts this goroutine's
			// search via the pipelineAbort panic; capture the first one and
			// let the level finish draining (sibling searches abort on their
			// own probes within one check interval). Any other panic is a
			// worker bug: convert it to a *PanicError so one poisoned query
			// fails with an error instead of killing the process.
			defer func() {
				if r := recover(); r != nil {
					var ferr error
					if a, ok := r.(pipelineAbort); ok {
						ferr = a.err
					} else {
						ferr = &PanicError{Val: r, Stack: debug.Stack()}
					}
					abortOnce.Do(func() { abortErr = ferr })
					aborted.Store(true)
				}
			}()
			if h := testHookPrototypeSearch; h != nil {
				h(pi)
			}
			// The containment rule only covers prototypes derivable into
			// the previous level: a (rare) childless prototype — every
			// legal removal disconnects it — must be searched on the full
			// candidate set.
			searchState := level
			if dist < set.MaxDist && len(set.Protos[pi].Children) == 0 {
				searchState = res.Candidate
			}
			fork := cc.Fork()
			sol := e.searchPrototype(searchState, pi, fork, &metrics[idx])
			// Charge the fork's tail of amortized ticks: every tick is
			// charged by the time the run returns.
			fork.Check()
			sols[idx] = sol
		}(idx, pi)
	}
	wg.Wait()
	// Fold the workers' counters before any abort: work actually performed
	// must reach the caller (and /metrics) even when the level dies.
	for idx := range metrics {
		e.metrics.Add(&metrics[idx])
	}
	if abortErr != nil {
		if errors.Is(abortErr, ErrBudgetExhausted) {
			// Re-enter the budget-abort path so the deferred
			// recoverBudgetAbort reports it uniformly.
			panic(pipelineAbort{abortErr})
		}
		return nil, abortErr
	}
	return e.commitLevel(res, sols, dist, frac, start, cc), nil
}
