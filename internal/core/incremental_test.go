package core

import (
	"fmt"
	"math/rand"
	"testing"

	"approxmatch/internal/graph"
)

// randomDelta builds a random valid mutation batch against g: a mix of
// inserts, deletes and relabels, honoring ApplyDelta's strictness rules.
func randomDelta(rng *rand.Rand, g *graph.Graph, labels int) *graph.Delta {
	n := g.NumVertices()
	db := graph.NewDeltaBuilder()
	edgeLabeled := g.HasEdgeLabels()
	used := make(map[graph.Edge]bool)
	ops := 1 + rng.Intn(4)
	for i := 0; i < ops; i++ {
		u, v := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if used[graph.Edge{U: u, V: v}] {
			continue
		}
		used[graph.Edge{U: u, V: v}] = true
		if g.HasEdge(u, v) {
			db.DeleteEdge(u, v)
		} else if edgeLabeled {
			db.InsertEdgeLabeled(u, v, graph.Label(rng.Intn(2)))
		} else {
			db.InsertEdge(u, v)
		}
	}
	relabeled := make(map[graph.VertexID]bool)
	for i := 0; i < rng.Intn(3); i++ {
		v := graph.VertexID(rng.Intn(n))
		if relabeled[v] {
			continue
		}
		relabeled[v] = true
		db.RelabelVertex(v, graph.Label(rng.Intn(labels)))
	}
	return db.Delta()
}

// assertIncrementalEqual compares the result surfaces the incremental contract
// covers: Rho, per-prototype solution subgraphs, match counts and the
// semantic per-level stats.
func assertIncrementalEqual(t *testing.T, tag string, got, want *Result) {
	t.Helper()
	if !got.Rho.Equal(want.Rho) {
		t.Fatalf("%s: Rho differs from from-scratch run", tag)
	}
	if len(got.Solutions) != len(want.Solutions) {
		t.Fatalf("%s: %d solutions vs %d", tag, len(got.Solutions), len(want.Solutions))
	}
	for pi := range want.Solutions {
		gs, ws := got.Solutions[pi], want.Solutions[pi]
		if !gs.Verts.Equal(ws.Verts) {
			t.Fatalf("%s: prototype %d vertex set differs", tag, pi)
		}
		if !gs.Edges.Equal(ws.Edges) {
			t.Fatalf("%s: prototype %d edge set differs", tag, pi)
		}
		if gs.MatchCount != ws.MatchCount {
			t.Fatalf("%s: prototype %d match count %d, want %d", tag, pi, gs.MatchCount, ws.MatchCount)
		}
	}
	if len(got.Levels) != len(want.Levels) {
		t.Fatalf("%s: %d levels vs %d", tag, len(got.Levels), len(want.Levels))
	}
	for i, wl := range want.Levels {
		gl := got.Levels[i]
		if gl.Dist != wl.Dist || gl.Prototypes != wl.Prototypes ||
			gl.ActiveVertices != wl.ActiveVertices ||
			gl.LabelsGenerated != wl.LabelsGenerated || gl.Complete != wl.Complete {
			t.Fatalf("%s: level %d semantic stats differ: %+v vs %+v", tag, i, gl, wl)
		}
	}
}

// TestIncrementalDifferential is the randomized differential suite for the
// incremental maintenance path: over streams of insert/delete/relabel
// batches, the incrementally maintained result must stay bit-identical to a
// from-scratch run on the mutated graph — across worker counts, two seeded
// batch streams each, and edge-labeled graphs. Each step chains off the previous
// incremental result, so drift would compound and get caught.
func TestIncrementalDifferential(t *testing.T) {
	for _, workers := range []int{0, 1, 3} {
		for _, stream := range []int{0, 1} {
			t.Run(fmt.Sprintf("workers=%d/stream=%d", workers, stream), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(4200 + workers*10 + stream)))
				for round := 0; round < 3; round++ {
					edgeLabeled := round%2 == 1
					var g *graph.Graph
					if edgeLabeled {
						g = randomEdgeLabeledGraph(rng, 40, 110, 3, 2)
					} else {
						g = randomGraph(rng, 40, 110, 3)
					}
					var tpl = randomTemplate(rng, 4, 3)
					if edgeLabeled {
						tpl = randomEdgeLabeledTemplate(rng, 4, 3, 2)
					}
					cfg := DefaultConfig(1 + rng.Intn(2))
					cfg.CountMatches = true
					cfg.Workers = workers

					prev, err := Run(g, tpl, cfg)
					if err != nil {
						t.Fatal(err)
					}
					for step := 0; step < 4; step++ {
						d := randomDelta(rng, g, 3)
						ng, changed, err := graph.ApplyDelta(g, d)
						if err != nil {
							t.Fatalf("round %d step %d: %v", round, step, err)
						}
						inc, stats, err := RunIncremental(prev, ng, changed, cfg)
						if err != nil {
							t.Fatalf("round %d step %d: incremental: %v", round, step, err)
						}
						scratch, err := Run(ng, tpl, cfg)
						if err != nil {
							t.Fatalf("round %d step %d: scratch: %v", round, step, err)
						}
						tag := fmt.Sprintf("round %d step %d (|C|=%d |A|=%d |B|=%d r=%d)",
							round, step, stats.ChangedVertices, stats.AffectedVertices,
							stats.RegionVertices, stats.Radius)
						assertIncrementalEqual(t, tag, inc, scratch)
						if stats.AffectedVertices > stats.RegionVertices {
							t.Fatalf("%s: |A| > |B|", tag)
						}
						g, prev = ng, inc
					}
				}
			})
		}
	}
}

// TestIncrementalEmptyDelta: maintaining across a no-op change (an empty
// changed list, e.g. an epoch bump) must reproduce the previous result.
func TestIncrementalEmptyDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, 30, 80, 3)
	tpl := randomTemplate(rng, 4, 3)
	cfg := DefaultConfig(1)
	cfg.CountMatches = true
	prev, err := Run(g, tpl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	inc, stats, err := RunIncremental(prev, g, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RegionVertices != 0 || stats.AffectedVertices != 0 {
		t.Errorf("empty delta grew a dirty region: %+v", stats)
	}
	assertIncrementalEqual(t, "empty delta", inc, prev)
}

// TestIncrementalContractErrors covers the validation surface.
func TestIncrementalContractErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(rng, 20, 40, 3)
	tpl := randomTemplate(rng, 4, 3)
	cfg := DefaultConfig(1)
	cfg.CountMatches = true
	prev, err := Run(g, tpl, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if _, _, err := RunIncremental(nil, g, nil, cfg); err == nil {
		t.Error("nil prev accepted")
	}
	bad := cfg
	bad.EditDistance = 2
	if _, _, err := RunIncremental(prev, g, nil, bad); err == nil {
		t.Error("mismatched edit distance accepted")
	}
	bad = cfg
	bad.Restrict = prev.Solutions[0].Verts
	if _, _, err := RunIncremental(prev, g, nil, bad); err == nil {
		t.Error("caller-set Restrict accepted")
	}
	if _, _, err := RunIncremental(prev, g, []graph.VertexID{99}, cfg); err == nil {
		t.Error("out-of-range changed vertex accepted")
	}
	uncounted := cfg
	uncounted.CountMatches = false
	prevU, err := Run(g, tpl, uncounted)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunIncremental(prevU, g, nil, cfg); err == nil {
		t.Error("counting against an uncounted previous result accepted")
	}
	partial := &Result{}
	*partial = *prev
	partial.Partial = true
	if _, _, err := RunIncremental(partial, g, nil, cfg); err == nil {
		t.Error("partial prev accepted")
	}
}

// TestRestrictFullMaskIdentical: a Restrict mask covering every vertex must
// be bit-identical to an unrestricted run — results AND deterministic
// counters — on both the sequential and superstep schedules.
func TestRestrictFullMaskIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := randomGraph(rng, 30, 80, 3)
	tpl := randomTemplate(rng, 4, 3)
	for _, workers := range []int{0, 2} {
		cfg := DefaultConfig(1)
		cfg.CountMatches = true
		cfg.Workers = workers
		base, err := Run(g, tpl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		full := NewFullState(g)
		cfg.Restrict = full.VertexBits()
		masked, err := Run(g, tpl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertIncrementalEqual(t, fmt.Sprintf("workers=%d", workers), masked, base)
		if masked.Metrics.CandidateMessages != base.Metrics.CandidateMessages {
			t.Errorf("workers=%d: candidate messages %d, want %d",
				workers, masked.Metrics.CandidateMessages, base.Metrics.CandidateMessages)
		}
	}
}
