package core

import (
	"context"
	"time"

	"approxmatch/internal/bitvec"
	"approxmatch/internal/constraint"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
	"approxmatch/internal/prototype"
)

// Config controls the pipeline's optimizations; every field corresponds to a
// design choice the paper evaluates, so each can be toggled for ablation.
type Config struct {
	// EditDistance is k, the maximum number of edge deletions.
	EditDistance int
	// WorkRecycling enables the NLCC result cache shared across prototypes
	// (Obs. 2; Fig. 8 scenario Y).
	WorkRecycling bool
	// FrequencyOrdering enables label-frequency-based constraint ordering
	// and walk orientation (§5.4, Fig. 9b top).
	FrequencyOrdering bool
	// LabelPairRefinement keeps, in the containment step, only candidate
	// edges whose label pair matches a removable template edge instead of
	// every candidate edge between active vertices (Obs. 1's edge bound).
	LabelPairRefinement bool
	// CountMatches computes per-prototype match counts during the search.
	CountMatches bool
	// Workers is the size of the shared worker pool the constraint-checking
	// kernels (candidate-set fixpoint, LCC phases, NLCC initiator scans) run
	// on, with superstep (BSP) semantics. 0 keeps the sequential reference
	// schedule. Rho and Solutions are bit-identical for every value;
	// counters are deterministic per value and identical across all
	// Workers >= 1.
	Workers int
	// Budget bounds the run's work, auxiliary memory and wall time; the
	// zero value is unlimited. On exhaustion the bottom-up pipeline stops
	// between edit-distance levels and returns a Partial result alongside an
	// ErrBudgetExhausted error — completed levels stay exact, unfinished
	// ones are reported unknown (see Result.Partial). A budget already
	// attached to the context via WithBudget takes precedence.
	Budget Budget
	// CacheBytes caps the NLCC work-recycling cache's memory; 0 is
	// unbounded (today's behavior). When full, least-recently-used entries
	// are evicted — eviction costs recomputation only, never correctness.
	CacheBytes int64
	// SharedCache, when non-nil, replaces the run's private NLCC
	// work-recycling cache with a caller-owned store that outlives the run,
	// so constraint walks recycle across queries, not just across
	// prototypes of one query (Obs. 2 lifted over the query boundary).
	// Walk IDs are label-canonical, so foreign entries only ever describe
	// the same constraint; in any case cache content is correctness-neutral
	// — the exact verification phase fixes precision, eviction only costs
	// recomputation. Requires WorkRecycling; the store must have been built
	// for the same background graph (vertex-id space). CacheBytes is
	// ignored — the store carries its own cap.
	SharedCache *Cache
	// NoSymmetry disables automorphism symmetry breaking in the match
	// counting/enumeration kernels (ablation). The optimized path explores
	// one representative per match orbit and restores the full count and
	// mapping set by the orbit size, so counts and solutions are identical
	// either way; only the enumeration order and EnumExpansions differ.
	NoSymmetry bool
	// NoGuards disables failure-guard pruning in the backtracking verifier
	// and enumerator (ablation). Guards only skip subtrees proven
	// matchless, so Rho, solutions and counts are bit-identical either way.
	NoGuards bool
	// Restrict, when non-nil, seeds the pipeline's active set from the
	// given vertex mask (length NumVertices) instead of the full graph: the
	// run computes exactly the matches of the subgraph induced by the
	// mask's vertices. The incremental maintenance path (RunIncremental)
	// uses this to confine re-matching to the dirty region around a graph
	// delta; a nil Restrict is today's full-graph behavior, bit-identical
	// counters included.
	Restrict *bitvec.Vector
}

// DefaultConfig returns the fully optimized configuration for edit-distance
// k.
func DefaultConfig(k int) Config {
	return Config{
		EditDistance:        k,
		WorkRecycling:       true,
		FrequencyOrdering:   true,
		LabelPairRefinement: true,
	}
}

// kernel maps the public ablation knobs onto the backtracking kernels'
// option set.
func (c *Config) kernel() kernelOpts {
	return kernelOpts{noSymmetry: c.NoSymmetry, noGuards: c.NoGuards}
}

// Solution is the solution subgraph G*_{δ,p} of one prototype (Def. 2):
// exactly the vertices and directed edge slots participating in at least one
// exact match, plus the match count when requested.
type Solution struct {
	// Proto is the prototype index within the Set.
	Proto int
	// Verts has a bit per background vertex.
	Verts *bitvec.Vector
	// Edges has a bit per directed adjacency slot.
	Edges *bitvec.Vector
	// MatchCount is the number of distinct matches, or -1 when not counted.
	MatchCount int64
}

// Result is the output of a pipeline run.
type Result struct {
	// Graph and Template echo the inputs.
	Graph    *graph.Graph
	Template *pattern.Template
	// Set is the generated prototype set P_k.
	Set *prototype.Set
	// Rho is the per-vertex match vector matrix: Rho[v][p] is set when v
	// participates in at least one match of prototype p (Def. 3).
	Rho *bitvec.Matrix
	// Solutions holds one Solution per prototype, indexed like Set.Protos.
	Solutions []*Solution
	// Candidate is the maximum candidate set M*.
	Candidate *State
	// Metrics aggregates the logical message counts.
	Metrics Metrics
	// Levels records per-edit-distance statistics, bottom-up order. On a
	// partial run it covers every level: completed ones with their real
	// stats and Complete set, unfinished ones as Complete=false
	// placeholders.
	Levels []LevelStats
	// Partial reports that the run's Budget was exhausted before all levels
	// completed. Per the containment rule (Obs. 1) each completed level is
	// computed only from the previous completed level, so the prototype
	// columns of levels with Complete set are exact — bit-identical to an
	// unbudgeted run's, 100% precision and recall — while the columns of
	// unfinished prototypes are all-zero and must be treated as unknown,
	// not as non-matches. Candidate may be nil when the budget died during
	// candidate-set generation.
	Partial bool
}

// CompletedLevels returns how many edit-distance levels finished.
func (r *Result) CompletedLevels() int {
	n := 0
	for _, l := range r.Levels {
		if l.Complete {
			n++
		}
	}
	return n
}

// engine carries the per-run machinery shared by the bottom-up and top-down
// modes.
type engine struct {
	g       *graph.Graph
	cfg     Config
	set     *prototype.Set
	cache   *Cache
	freq    constraint.LabelFreq
	metrics Metrics
	// cc is the run's cancellation probe (nil when the run's context can
	// never fire). It serves the coordinator goroutine — candidate set,
	// containment states — and the top-down searches; each
	// bottom-up prototype search Forks its own.
	cc *CancelCheck
	// walks caches, per prototype index, the oriented/ordered pruning
	// walks and the local profile.
	walks    map[int][]*constraint.Walk
	profiles map[int]*localProfile
	// pool is the run-wide kernel worker pool (nil = sequential kernels),
	// shared by every prototype search of the run — including concurrent
	// ones — and closed by the run entry points via close().
	pool *Pool
}

func newEngine(g *graph.Graph, set *prototype.Set, cfg Config) *engine {
	e := &engine{
		g:        g,
		cfg:      cfg,
		set:      set,
		walks:    make(map[int][]*constraint.Walk),
		profiles: make(map[int]*localProfile),
	}
	if cfg.WorkRecycling {
		if cfg.SharedCache != nil {
			e.cache = cfg.SharedCache
		} else {
			e.cache = NewCacheBytes(g.NumVertices(), cfg.CacheBytes)
		}
	}
	if cfg.FrequencyOrdering {
		e.freq = make(constraint.LabelFreq)
		for l, c := range g.LabelFrequencies() {
			e.freq[l] = c
		}
		// The wildcard "label" occurs at every vertex.
		e.freq[pattern.Wildcard] = int64(g.NumVertices())
	}
	e.pool = NewPool(cfg.Workers)
	return e
}

// close releases the engine's worker pool.
func (e *engine) close() { e.pool.Close() }

func (e *engine) walksFor(pi int) []*constraint.Walk {
	if ws, ok := e.walks[pi]; ok {
		return ws
	}
	ws := preparedWalks(e.g, e.set.Protos[pi].Template, e.freq)
	e.walks[pi] = ws
	return ws
}

func (e *engine) profileFor(pi int) *localProfile {
	if p, ok := e.profiles[pi]; ok {
		return p
	}
	p := buildLocalProfile(e.set.Protos[pi].Template)
	e.profiles[pi] = p
	return p
}

// searchPrototype implements Alg. 2 for prototype pi: LCC fixpoint,
// interleaved NLCC pruning walks (with re-LCC after eliminations), then the
// exact verification phase, probing cc and counting into m. The input level
// state is not modified. Concurrent calls are safe once pi's walks and
// profile are built.
func (e *engine) searchPrototype(level *State, pi int, cc *CancelCheck, m *Metrics) *Solution {
	t := e.set.Protos[pi].Template
	sol := searchTemplateOn(level, t, e.profileFor(pi), e.walksFor(pi), e.cache, e.pool, cc, e.cfg.CountMatches, m, e.cfg.kernel())
	sol.Proto = pi
	return sol
}

// cleanEdges returns the active-edge vector restricted to slots whose both
// endpoints are active.
func cleanEdges(s *State) *bitvec.Vector {
	out := bitvec.New(s.g.NumDirectedEdges())
	s.ForEachActiveVertex(func(v graph.VertexID) {
		base := int(s.g.AdjOffset(v))
		s.ForEachActiveNeighbor(v, func(i int, _ graph.VertexID) { out.Set(base + i) })
	})
	return out
}

// Run executes the bottom-up approximate-matching pipeline (Alg. 1): it
// generates P_k, computes the maximum candidate set, then iterates from the
// furthest edit distance toward 0, searching each prototype within the
// union of the previous level's solution subgraphs per the containment rule.
// It is RunParallel with parallelism 1: prototypes are searched one at a
// time, in index order. A panic inside a prototype search is returned as a
// *PanicError instead of crashing the process.
func Run(g *graph.Graph, t *pattern.Template, cfg Config) (*Result, error) {
	return RunContext(context.Background(), g, t, cfg)
}

// RunContext is Run honoring ctx: cancellation and deadline expiry are
// observed by cheap periodic probes inside the candidate-set fixpoint, the
// LCC fixpoint, the NLCC walk loop and the verification phase, and the run
// returns ctx.Err(). When ctx never fires, the results are identical to
// Run's.
//
// When a budget governs the run (Config.Budget or WithBudget on ctx) and it
// is exhausted mid-pipeline, RunContext returns BOTH a non-nil partial
// result and a non-nil error matching ErrBudgetExhausted — check
// Result.Partial / errors.Is before discarding either. Like Run, it returns
// a prototype-search panic as a *PanicError.
func RunContext(ctx context.Context, g *graph.Graph, t *pattern.Template, cfg Config) (*Result, error) {
	return RunParallelContext(ctx, g, t, cfg, 1)
}

// commitLevel publishes a completed level's solutions and stats into res and
// builds the next level's containment state (nil at δ=0).
func (e *engine) commitLevel(res *Result, sols []*Solution, dist int, frac float64, start time.Time, cc *CancelCheck) *State {
	unionVerts := bitvec.New(res.Graph.NumVertices())
	unionEdges := bitvec.New(res.Graph.NumDirectedEdges())
	var labels int64
	for _, sol := range sols {
		res.Solutions[sol.Proto] = sol
		unionVerts.Or(sol.Verts)
		unionEdges.Or(sol.Edges)
		sol.Verts.ForEach(func(v int) {
			res.Rho.Set(v, sol.Proto)
			labels++
		})
	}
	res.Levels = append(res.Levels, LevelStats{
		Dist:            dist,
		Prototypes:      len(sols),
		ActiveVertices:  unionVerts.Count(),
		LabelsGenerated: labels,
		Duration:        time.Since(start),
		ActiveFraction:  frac,
		Complete:        true,
	})
	if dist > 0 {
		return e.containmentState(cc, res.Candidate, unionVerts, unionEdges, dist)
	}
	return nil
}

// finishPartial marks res partial, appends Complete=false placeholders for
// every level that did not finish, folds the metrics gathered so far (so
// /metrics accounting survives the abort) and returns res together with the
// budget-exhaustion error.
func (e *engine) finishPartial(res *Result, cause error) (*Result, error) {
	res.Partial = true
	next := res.Set.MaxDist
	if n := len(res.Levels); n > 0 {
		next = res.Levels[n-1].Dist - 1
	}
	for dist := next; dist >= 0; dist-- {
		res.Levels = append(res.Levels, LevelStats{Dist: dist, Prototypes: res.Set.CountAt(dist)})
	}
	e.foldCache()
	res.Metrics = e.metrics
	return res, cause
}

// foldCache folds the work-recycling cache's eviction count into the run
// metrics; called once per run, on both the full and partial paths. A
// caller-owned SharedCache is skipped: its counters are cumulative across
// queries, so folding them here would double-count every prior query's
// evictions into this run's metrics — the store surfaces its own totals.
func (e *engine) foldCache() {
	if e.cache != nil && e.cache != e.cfg.SharedCache {
		e.metrics.CacheEvictions += e.cache.Evictions()
	}
}

// containmentState builds the search state for level dist-1 from the union
// of level-dist solution subgraphs (Obs. 1): union vertices, union edges,
// plus candidate-set edges between union vertices whose label pair matches
// an edge removable at this level (or every candidate edge when the
// refinement is disabled). The fresh state's bitvecs are charged against
// cc's byte budget.
func (e *engine) containmentState(cc *CancelCheck, candidate *State, unionVerts, unionEdges *bitvec.Vector, dist int) *State {
	cc.ChargeBytes(int64(e.g.NumVertices()+e.g.NumDirectedEdges()) / 8)
	s := NewEmptyState(e.g)
	s.verts.Or(unionVerts)
	s.edges.Or(unionEdges)

	var pairs *pattern.PairSet
	if e.cfg.LabelPairRefinement {
		pairs = e.set.RemovedLabelPairs(dist)
	}
	s.ForEachActiveVertex(func(v graph.VertexID) {
		ns := e.g.Neighbors(v)
		base := int(e.g.AdjOffset(v))
		lv := e.g.Label(v)
		for i, u := range ns {
			if !candidate.edges.Get(base+i) || !unionVerts.Get(int(u)) {
				continue
			}
			if pairs != nil && !pairs.Matches(lv, e.g.Label(u)) {
				continue
			}
			s.edges.Set(base + i)
		}
	})
	return s
}

// MatchVector returns the prototype indices vertex v matches.
func (r *Result) MatchVector(v graph.VertexID) []int {
	var out []int
	r.Rho.RowForEach(int(v), func(c int) { out = append(out, c) })
	return out
}

// UnionVertices returns the vertices participating in at least one match of
// any prototype.
func (r *Result) UnionVertices() *bitvec.Vector {
	out := bitvec.New(r.Graph.NumVertices())
	for _, sol := range r.Solutions {
		if sol != nil {
			out.Or(sol.Verts)
		}
	}
	return out
}

// LabelsGenerated returns the total number of (vertex, prototype) labels.
func (r *Result) LabelsGenerated() int64 {
	var total int64
	for _, l := range r.Levels {
		total += l.LabelsGenerated
	}
	return total
}

// TotalMatchCount sums per-prototype match counts; it returns -1 when the
// run did not count matches.
func (r *Result) TotalMatchCount() int64 {
	var total int64
	for _, sol := range r.Solutions {
		if sol == nil {
			continue
		}
		if sol.MatchCount < 0 {
			return -1
		}
		total += sol.MatchCount
	}
	return total
}

// SolutionFor returns the solution subgraph of prototype pi.
func (r *Result) SolutionFor(pi int) *Solution { return r.Solutions[pi] }

// SolutionState reconstructs a State from a prototype's solution subgraph,
// for enumeration.
func (r *Result) SolutionState(pi int) *State {
	s := NewEmptyState(r.Graph)
	sol := r.Solutions[pi]
	s.verts.Or(sol.Verts)
	s.edges.Or(sol.Edges)
	return s
}

// EnumerateMatches calls fn for every exact match of prototype pi; fn
// returns false to stop. The slice passed to fn is reused. Vertices are
// reported as external ids: on a degree-relabeled graph the kernel's
// internal ids are translated before fn sees them, so enumeration output is
// invariant under relabeling.
func (r *Result) EnumerateMatches(pi int, fn func([]graph.VertexID) bool) {
	s := r.SolutionState(pi)
	t := r.Set.Protos[pi].Template
	omega := initCandidates(s, t)
	var m Metrics
	if !r.Graph.Relabeled() {
		enumerateMatches(s, omega, t, nil, &m, kernelOpts{}, fn)
		return
	}
	ext := make([]graph.VertexID, t.NumVertices())
	enumerateMatches(s, omega, t, nil, &m, kernelOpts{}, func(match []graph.VertexID) bool {
		for i, v := range match {
			ext[i] = r.Graph.ExternalID(v)
		}
		return fn(ext)
	})
}

// CountMatchesOf enumerates and counts matches of prototype pi (independent
// of Config.CountMatches).
func (r *Result) CountMatchesOf(pi int) int64 {
	var count int64
	r.EnumerateMatches(pi, func([]graph.VertexID) bool {
		count++
		return true
	})
	return count
}
