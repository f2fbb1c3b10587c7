package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
	"approxmatch/internal/rmat"
)

// randomDecoratedTemplate builds a small random connected template whose
// labels are sampled from the graph, with optional wildcard vertices and
// optional mandatory edges — the template mix of the kernel-equivalence
// property test.
func randomDecoratedTemplate(rng *rand.Rand, g *graph.Graph) *pattern.Template {
	// Sample labels from live edge endpoints so templates hit the graph's
	// populated label classes (isolated vertices would yield vacuous runs).
	liveLabel := func() pattern.Label {
		for tries := 0; tries < 50; tries++ {
			v := graph.VertexID(rng.Intn(g.NumVertices()))
			if len(g.Neighbors(v)) > 0 {
				return g.Label(v)
			}
		}
		return g.Label(0)
	}
	n := 2 + rng.Intn(3)
	ls := make([]pattern.Label, n)
	for i := range ls {
		ls[i] = liveLabel()
		if rng.Intn(5) == 0 {
			ls[i] = pattern.Wildcard
		}
	}
	var edges []pattern.Edge
	for v := 1; v < n; v++ {
		edges = append(edges, pattern.Edge{I: rng.Intn(v), J: v})
	}
	// Close a cycle often: cyclic templates generate non-local (CC/PC)
	// constraints, so the NLCC superstep path gets exercised.
	if n >= 3 && rng.Intn(3) != 0 {
		e := pattern.Edge{I: 0, J: n - 1}
		dup := false
		for _, x := range edges {
			if x == e {
				dup = true
			}
		}
		if !dup {
			edges = append(edges, e)
		}
	}
	mandatory := make([]bool, len(edges))
	for i := range mandatory {
		mandatory[i] = rng.Intn(5) == 0
	}
	t, err := pattern.NewEdgeLabeled(ls, edges, nil, mandatory)
	if err != nil {
		panic(err)
	}
	return t
}

// assertSameResult asserts bit-identical Rho, Solutions and match counts
// between two runs of the pipeline.
func assertSameResult(t *testing.T, want, got *Result, tag string) {
	t.Helper()
	if !want.Rho.Equal(got.Rho) {
		t.Errorf("%s: Rho differs", tag)
	}
	if len(want.Solutions) != len(got.Solutions) {
		t.Fatalf("%s: %d vs %d solutions", tag, len(want.Solutions), len(got.Solutions))
	}
	for pi := range want.Solutions {
		ws, gs := want.Solutions[pi], got.Solutions[pi]
		if !ws.Verts.Equal(gs.Verts) {
			t.Errorf("%s: proto %d vertex bits differ", tag, pi)
		}
		if !ws.Edges.Equal(gs.Edges) {
			t.Errorf("%s: proto %d edge bits differ", tag, pi)
		}
		if ws.MatchCount != gs.MatchCount {
			t.Errorf("%s: proto %d count %d vs %d", tag, pi, ws.MatchCount, gs.MatchCount)
		}
	}
}

// TestWorkersDifferentialRMAT is the kernel-equivalence property test: on
// seeded R-MAT graphs with randomized templates (wildcards, mandatory
// edges) and k in {0,1,2}, Workers: N must produce bit-identical Rho,
// Solutions and match counts to the sequential reference path.
func TestWorkersDifferentialRMAT(t *testing.T) {
	rng := rand.New(rand.NewSource(1701))
	for trial := 0; trial < 10; trial++ {
		p := rmat.Graph500(7, int64(1000+trial))
		p.EdgeFactor = 4
		g := rmat.Generate(p)
		tp := randomDecoratedTemplate(rng, g)
		cfg := DefaultConfig(trial % 3)
		cfg.CountMatches = true
		want, err := Run(g, tp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			wcfg := cfg
			wcfg.Workers = workers
			got, err := Run(g, tp, wcfg)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, want, got, tp.String())
		}
	}
}

// TestWorkersDifferentialEdgeLabels covers the edge-labeled-template corner
// of the property test (R-MAT graphs carry no edge labels).
func TestWorkersDifferentialEdgeLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(1702))
	for trial := 0; trial < 8; trial++ {
		g := randomEdgeLabeledGraph(rng, 40, 120, 3, 2)
		tp := randomEdgeLabeledTemplate(rng, 4, 3, 2)
		cfg := DefaultConfig(trial % 3)
		cfg.CountMatches = true
		want, err := Run(g, tp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wcfg := cfg
		wcfg.Workers = 4
		got, err := Run(g, tp, wcfg)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, want, got, tp.String())
	}
}

// TestWorkersRunParallelMatchesRun crosses both parallelism layers:
// concurrent prototype searches sharing one kernel pool must still match
// the fully sequential run. The other entry points, RunTopDown and
// MatchFlips, must likewise agree with their sequential runs for every
// worker count.
func TestWorkersRunParallelMatchesRun(t *testing.T) {
	for _, in := range []struct {
		seed         int64
		verts, edges int
	}{{1703, 40, 110}, {2026, 50, 140}} {
		rng := rand.New(rand.NewSource(in.seed))
		g := randomGraph(rng, in.verts, in.edges, 3)
		tp := randomTemplate(rng, 4, 3)
		cfg := DefaultConfig(2)
		cfg.CountMatches = true
		want, err := Run(g, tp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantTD, err := RunTopDown(g, tp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantFl, err := MatchFlips(g, tp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1, 3} {
			tag := fmt.Sprintf("seed %d workers=%d", in.seed, workers)
			wcfg := cfg
			wcfg.Workers = workers
			got, err := RunParallel(g, tp, wcfg, 3)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, want, got, tag)

			gotTD, err := RunTopDown(g, tp, wcfg)
			if err != nil {
				t.Fatal(err)
			}
			if gotTD.FoundDist != wantTD.FoundDist ||
				!gotTD.MatchingVertices.Equal(wantTD.MatchingVertices) {
				t.Errorf("%s: top-down found %d, want %d (or matching vertices differ)",
					tag, gotTD.FoundDist, wantTD.FoundDist)
			}

			gotFl, err := MatchFlips(g, tp, wcfg)
			if err != nil {
				t.Fatal(err)
			}
			if !gotFl.Base.Verts.Equal(wantFl.Base.Verts) || !gotFl.Base.Edges.Equal(wantFl.Base.Edges) {
				t.Errorf("%s: flips base solution differs", tag)
			}
			if gotFl.TotalMatchCount() != wantFl.TotalMatchCount() {
				t.Errorf("%s: flips count %d, want %d", tag, gotFl.TotalMatchCount(), wantFl.TotalMatchCount())
			}
			for i := range wantFl.Solutions {
				if !gotFl.Solutions[i].Verts.Equal(wantFl.Solutions[i].Verts) {
					t.Errorf("%s: flip %d vertex bits differ", tag, i)
				}
			}
		}
	}
}

// counterVector extracts the schedule-sensitive work counters (durations
// excluded).
func counterVector(m *Metrics) []int64 {
	return []int64{
		m.CandidateMessages, m.LCCMessages, m.NLCCMessages, m.VerifyMessages,
		m.TokensInitiated, m.CacheHits, m.LCCIterations, m.VerifySearches,
		m.PrototypesSearched,
	}
}

// TestWorkersCountersScheduleIndependent asserts the superstep counters are
// schedule-independent: every parallel worker count N >= 1 reports the same
// message/iteration counters, because per-round work depends only on the
// round-start snapshot, not on the partitioning. (The sequential reference
// path may legitimately differ — its in-place loops see same-round
// eliminations early.)
func TestWorkersCountersScheduleIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(1704))
	for trial := 0; trial < 4; trial++ {
		g := rmat.Generate(rmat.Params{Scale: 6, EdgeFactor: 4, A: 0.57, B: 0.19, C: 0.19, Seed: int64(trial)})
		tp := randomDecoratedTemplate(rng, g)
		cfg := DefaultConfig(1)
		cfg.Workers = 1
		base, err := Run(g, tp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := counterVector(&base.Metrics)
		for _, workers := range []int{2, 5} {
			cfg.Workers = workers
			res, err := Run(g, tp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := counterVector(&res.Metrics)
			for i := range want {
				if want[i] != got[i] {
					t.Errorf("%v workers=%d: counter %d = %d, want %d (workers=1)",
						tp, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// assertSlotSymmetry asserts the state-invariant of the edge bit vector:
// the two directed slots of every edge agree (no dangling one-sided slots).
func assertSlotSymmetry(t *testing.T, s *State, tag string) {
	t.Helper()
	g := s.Graph()
	for v := 0; v < g.NumVertices(); v++ {
		vid := graph.VertexID(v)
		base := int(g.AdjOffset(vid))
		for i, u := range g.Neighbors(vid) {
			j := g.EdgeIndex(u, vid)
			if j < 0 {
				t.Fatalf("%s: missing reverse slot for (%d,%d)", tag, v, u)
			}
			rev := int(g.AdjOffset(u)) + j
			if s.edges.Get(base+i) != s.edges.Get(rev) {
				t.Fatalf("%s: asymmetric slots for edge (%d,%d): %v vs %v",
					tag, v, u, s.edges.Get(base+i), s.edges.Get(rev))
			}
		}
	}
}

// TestSlotSymmetryAfterKernels runs every kernel on both schedules and
// asserts the directed-slot bit vector stays symmetric throughout —
// the invariant behind NumActiveDirectedEdges/StateBytes accounting.
func TestSlotSymmetryAfterKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(1705))
	for trial := 0; trial < 5; trial++ {
		g := randomEdgeLabeledGraph(rng, 30, 90, 3, 2)
		tp := randomEdgeLabeledTemplate(rng, 4, 3, 2)
		for _, workers := range []int{0, 3} {
			pool := NewPool(workers)
			var m Metrics
			s := maxCandidateSet(g, tp, nil, pool, nil, &m)
			assertSlotSymmetry(t, s, "maxCandidateSet")

			omega := initCandidates(s, tp)
			prof := buildLocalProfile(tp)
			lcc(s, omega, prof, pool, nil, &m)
			assertSlotSymmetry(t, s, "lcc")

			for _, w := range preparedWalks(g, tp, nil) {
				nlcc(s, omega, tp, w, nil, pool, nil, &m)
			}
			assertSlotSymmetry(t, s, "nlcc")

			verifyExact(s, omega, tp, nil, &m, kernelOpts{})
			assertSlotSymmetry(t, s, "verifyExact")
			pool.Close()
		}
	}
}

// skewedGraph builds a graph whose low-id part is a dense high-degree
// community and whose high-id part is a sparse ring: nearly all of the
// CSR's directed slots belong to the dense region.
func skewedGraph(t *testing.T, dense, sparse int) *graph.Graph {
	b := graph.NewBuilder(0)
	for v := 0; v < dense; v++ {
		b.AddVertex(0)
	}
	for v := 0; v < sparse; v++ {
		b.AddVertex(1)
	}
	for u := 0; u < dense; u++ {
		for v := u + 1; v < dense; v++ {
			b.AddEdge(graph.VertexID(u), graph.VertexID(v))
		}
	}
	for i := 0; i < sparse; i++ {
		u := graph.VertexID(dense + i)
		v := graph.VertexID(dense + (i+1)%sparse)
		if u != v {
			b.AddEdge(u, v)
		}
	}
	g := b.Build()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPartitionBoundsBalanceActiveSlots is the partition-skew regression
// test: once the dense region is pruned away, balancing over the CSR
// offsets would cram the whole active ring into one partition. Balancing
// on active slots must give every partition a fair share.
func TestPartitionBoundsBalanceActiveSlots(t *testing.T) {
	const dense, sparse, parts = 64, 256, 4
	g := skewedGraph(t, dense, sparse)
	s := NewFullState(g)
	for v := 0; v < dense; v++ {
		s.DeactivateVertex(graph.VertexID(v))
	}
	bounds := partitionBounds(s, parts)
	if bounds[0] != 0 || bounds[parts] != g.NumVertices() {
		t.Fatalf("bounds %v do not cover [0, %d)", bounds, g.NumVertices())
	}
	mean := s.NumActiveDirectedEdges() / parts
	for i := 0; i < parts; i++ {
		lo := int(g.AdjOffset(graph.VertexID(bounds[i])))
		end := g.NumDirectedEdges()
		if bounds[i+1] < g.NumVertices() {
			end = int(g.AdjOffset(graph.VertexID(bounds[i+1])))
		}
		if c := s.EdgeBits().CountInRange(lo, end); c > 2*mean {
			t.Errorf("partition %d holds %d active slots, want at most %d (bounds %v)",
				i, c, 2*mean, bounds)
		}
	}
	if got := partitionBounds(s, 1); len(got) != 2 || got[0] != 0 || got[1] != g.NumVertices() {
		t.Errorf("one partition: bounds %v, want [0 %d]", got, g.NumVertices())
	}
}

// TestPoolPanicPropagation checks that a worker panic crosses the barrier
// back onto the caller instead of killing the process from a pool
// goroutine.
func TestPoolPanicPropagation(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	pool.run(4, func(part int) {
		if part == 2 {
			panic("boom")
		}
	})
	t.Fatal("unreachable")
}

// TestWorkersCancellation exercises cancellation through the superstep
// path: the forked per-partition probes must abort the run with the
// context's error.
func TestWorkersCancellation(t *testing.T) {
	g := rmat.Generate(rmat.Graph500(9, 7))
	tp := randomDecoratedTemplate(rand.New(rand.NewSource(9)), g)
	cfg := DefaultConfig(2)
	cfg.Workers = 3

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, g, tp, cfg); err != context.Canceled {
		t.Fatalf("pre-canceled: err=%v", err)
	}

	ctx, cancel = context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := RunContext(ctx, g, tp, cfg); err != context.DeadlineExceeded {
		// A tiny run can legitimately finish before the deadline; only a
		// wrong error value is a failure.
		if err != nil {
			t.Fatalf("deadline: err=%v", err)
		}
	} else if time.Since(start) > 5*time.Second {
		t.Fatalf("cancellation took %v", time.Since(start))
	}
}
