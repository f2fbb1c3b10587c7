package core

import (
	"context"
	"fmt"

	"approxmatch/internal/bitvec"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
	"approxmatch/internal/prototype"
)

// Incremental maintenance: keep a query's Result current across a graph
// delta without a from-scratch run, using the paper's containment rule
// (Obs. 1) in reverse. The pipeline is exact (100% precision and recall),
// so Rho and the solution subgraphs are pure functions of the graph — which
// makes "re-run only near the change and merge" a well-defined operation
// with a provable equivalence, not a heuristic.
//
// The locality argument: every prototype keeps all n_T template vertices
// (only edges are deleted), so a match is a connected subgraph of at most
// n_T vertices and any two of its vertices are within r hops of each other,
// where r = max over P_k of diameter(prototype). (The issue's δ+diam(H0)
// is not a sound bound — deleting one edge from a cycle nearly doubles its
// diameter — so the implementation computes r exactly by BFS on the
// generated prototypes; r <= n_T - 1 always.) With C the changed vertices
// of a delta:
//
//   - a match created or destroyed by the delta contains a changed element
//     (an inserted/deleted edge endpoint or a relabeled vertex), hence lies
//     entirely within ball(C, r) of its graph;
//   - therefore matches touching no vertex of A := ball_old(C,r) ∪
//     ball_new(C,r) are carried over verbatim, and for vertices inside A
//     the truth is recomputed by running the pipeline restricted to
//     B := ball_old(C,2r) ∪ ball_new(C,2r), which contains every match —
//     old or new — through any vertex of A.
//
// Two restricted runs (old graph and new graph, both confined to B via
// Config.Restrict) then give exactly the information needed to splice the
// dirty region into the previous result, including exact match counts:
// newCount = prevCount - oldRestrictedCount + newRestrictedCount, because
// matches fully inside B that the delta did not touch appear in both
// restricted runs and cancel.

// DeltaStats reports the locality of one incremental maintenance run — how
// small the dirty region was relative to the graph, which is what makes the
// incremental path cheaper than a full recompute.
type DeltaStats struct {
	// Radius is r, the largest prototype diameter.
	Radius int
	// ChangedVertices is |C|: endpoints of inserted/deleted edges plus
	// relabeled vertices.
	ChangedVertices int
	// AffectedVertices is |A| = |ball(C, r)| (old and new graph united):
	// vertices whose match vector may change.
	AffectedVertices int
	// RegionVertices is |B| = |ball(C, 2r)|: vertices the restricted
	// re-runs touch.
	RegionVertices int
}

// RunIncremental is RunIncrementalContext with a background context.
func RunIncremental(prev *Result, newG *graph.Graph, changed []graph.VertexID, cfg Config) (*Result, *DeltaStats, error) {
	return RunIncrementalContext(context.Background(), prev, newG, changed, cfg)
}

// RunIncrementalContext maintains prev — a complete Result of a Run on the
// pre-delta graph — across a graph delta: newG is the post-delta graph
// (same vertex set; see graph.ApplyDelta) and changed is the delta's
// changed-vertex list. It returns a Result bit-identical in Rho, Solutions
// and match counts to a from-scratch run on newG, at the cost of two
// pipeline runs restricted to the dirty region around the change.
//
// Contract: prev must be non-partial and stem from a run with the same
// EditDistance and CountMatches settings on the graph the delta was applied
// to; cfg.Restrict must be nil (the incremental path owns it). The merged
// Result carries no Candidate state (it is a per-run pruning artifact, not
// part of the maintained output), its Levels keep the semantic fields only
// (timings and active fractions describe the restricted runs, not a full
// run) and its Metrics sum the two restricted runs. There is no
// anytime-partial contract here: a budget or cancellation abort in either
// restricted run fails the whole call with no merged result.
func RunIncrementalContext(ctx context.Context, prev *Result, newG *graph.Graph, changed []graph.VertexID, cfg Config) (*Result, *DeltaStats, error) {
	if prev == nil || prev.Partial {
		return nil, nil, fmt.Errorf("core: incremental maintenance needs a complete previous result")
	}
	if cfg.Restrict != nil {
		return nil, nil, fmt.Errorf("core: Restrict is owned by the incremental path")
	}
	oldG := prev.Graph
	n := newG.NumVertices()
	if oldG.NumVertices() != n {
		return nil, nil, fmt.Errorf("core: delta changed the vertex count (%d -> %d)", oldG.NumVertices(), n)
	}
	if cfg.EditDistance != prev.Set.K {
		return nil, nil, fmt.Errorf("core: edit distance %d differs from previous run's %d", cfg.EditDistance, prev.Set.K)
	}
	if cfg.CountMatches && prev.Solutions[0].MatchCount < 0 {
		return nil, nil, fmt.Errorf("core: CountMatches set but previous result is uncounted")
	}
	for _, v := range changed {
		if int(v) >= n {
			return nil, nil, fmt.Errorf("core: changed vertex %d out of range (n=%d)", v, n)
		}
	}

	r := prototypeRadius(prev.Set)
	A := bitvec.New(n)
	B := bitvec.New(n)
	growBalls(oldG, changed, r, 2*r, A, B)
	growBalls(newG, changed, r, 2*r, A, B)
	stats := &DeltaStats{
		Radius:           r,
		ChangedVertices:  len(changed),
		AffectedVertices: A.Count(),
		RegionVertices:   B.Count(),
	}

	rcfg := cfg
	rcfg.Restrict = B
	oldR, err := RunContext(ctx, oldG, prev.Template, rcfg)
	if err != nil {
		return nil, stats, fmt.Errorf("core: restricted run on previous epoch: %w", err)
	}
	newR, err := RunContext(ctx, newG, prev.Template, rcfg)
	if err != nil {
		return nil, stats, fmt.Errorf("core: restricted run on new epoch: %w", err)
	}

	res := mergeIncremental(prev, oldR, newR, newG, A, cfg.CountMatches)
	return res, stats, nil
}

// prototypeRadius returns the largest diameter over the prototype set's
// templates — the locality radius r of the containment argument above.
func prototypeRadius(set *prototype.Set) int {
	r := 0
	for _, p := range set.Protos {
		if d := templateDiameter(p.Template); d > r {
			r = d
		}
	}
	return r
}

// templateDiameter returns the diameter of a (connected) template by BFS
// from every vertex; templates have at most 64 vertices, so this is cheap.
func templateDiameter(t *pattern.Template) int {
	n := t.NumVertices()
	diam := 0
	dist := make([]int, n)
	queue := make([]int, 0, n)
	for src := 0; src < n; src++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue = append(queue[:0], src)
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			if dist[v] > diam {
				diam = dist[v]
			}
			for _, w := range t.Neighbors(v) {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
			}
		}
	}
	return diam
}

// growBalls runs one multi-source BFS from seeds on g, OR-ing vertices
// within distance inner into A and vertices within distance outer into B
// (inner <= outer). Called once per epoch's graph; the unions over both
// graphs are what the containment argument needs.
func growBalls(g *graph.Graph, seeds []graph.VertexID, inner, outer int, A, B *bitvec.Vector) {
	n := g.NumVertices()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]graph.VertexID, 0, len(seeds))
	for _, v := range seeds {
		if dist[v] < 0 {
			dist[v] = 0
			queue = append(queue, v)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		d := dist[v]
		if int(d) <= inner {
			A.Set(int(v))
		}
		B.Set(int(v))
		if int(d) >= outer {
			continue
		}
		for _, w := range g.Neighbors(v) {
			if dist[w] < 0 {
				dist[w] = d + 1
				queue = append(queue, w)
			}
		}
	}
}

// mergeIncremental splices the restricted runs into the previous result:
// inside A the new restricted run is the truth, outside A the previous
// epoch's bits carry over (with edge slots remapped from the old CSR's
// offsets to the new one's — an unaffected vertex keeps an identical
// neighbor list, only its base offset may shift).
func mergeIncremental(prev, oldR, newR *Result, newG *graph.Graph, A *bitvec.Vector, counted bool) *Result {
	oldG := prev.Graph
	n := newG.NumVertices()
	set := newR.Set
	count := set.Count()
	res := &Result{
		Graph:     newG,
		Template:  prev.Template,
		Set:       set,
		Rho:       bitvec.NewMatrix(n, count),
		Solutions: make([]*Solution, count),
	}
	for pi := 0; pi < count; pi++ {
		ps, os, nsol := prev.Solutions[pi], oldR.Solutions[pi], newR.Solutions[pi]
		verts := ps.Verts.Clone()
		verts.AndNot(A)
		inA := nsol.Verts.Clone()
		inA.And(A)
		verts.Or(inA)

		edges := bitvec.New(newG.NumDirectedEdges())
		for v := 0; v < n; v++ {
			vid := graph.VertexID(v)
			deg := newG.Degree(vid)
			if deg == 0 {
				continue
			}
			nb := int(newG.AdjOffset(vid))
			if A.Get(v) {
				for i := 0; i < deg; i++ {
					if nsol.Edges.Get(nb + i) {
						edges.Set(nb + i)
					}
				}
			} else {
				ob := int(oldG.AdjOffset(vid))
				for i := 0; i < deg; i++ {
					if ps.Edges.Get(ob + i) {
						edges.Set(nb + i)
					}
				}
			}
		}

		mc := int64(-1)
		if counted {
			mc = ps.MatchCount - os.MatchCount + nsol.MatchCount
		}
		res.Solutions[pi] = &Solution{Proto: pi, Verts: verts, Edges: edges, MatchCount: mc}
		verts.ForEach(func(v int) { res.Rho.Set(v, pi) })
	}

	// Rebuild the per-level stats' semantic fields from the merged
	// solutions, mirroring commitLevel's accounting; the run-shape fields
	// (Duration, ActiveFraction) stay zero — they would describe
	// the restricted runs, not a full run.
	for dist := set.MaxDist; dist >= 0; dist-- {
		unionVerts := bitvec.New(n)
		var labels int64
		ids := set.At(dist)
		for _, pi := range ids {
			unionVerts.Or(res.Solutions[pi].Verts)
			labels += int64(res.Solutions[pi].Verts.Count())
		}
		res.Levels = append(res.Levels, LevelStats{
			Dist:            dist,
			Prototypes:      len(ids),
			ActiveVertices:  unionVerts.Count(),
			LabelsGenerated: labels,
			Complete:        true,
		})
	}
	res.Metrics.Add(&oldR.Metrics)
	res.Metrics.Add(&newR.Metrics)
	return res
}
