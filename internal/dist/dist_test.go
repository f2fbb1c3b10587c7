package dist

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"approxmatch/internal/core"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
)

func randomGraph(rng *rand.Rand, n, m, labels int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetLabel(graph.VertexID(v), graph.Label(rng.Intn(labels)))
	}
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(graph.VertexID(u), graph.VertexID(v))
		}
	}
	return b.Build()
}

func randomTemplate(rng *rand.Rand, maxV, labels int) *pattern.Template {
	n := 2 + rng.Intn(maxV-1)
	ls := make([]pattern.Label, n)
	for i := range ls {
		ls[i] = pattern.Label(rng.Intn(labels))
	}
	var edges []pattern.Edge
	for v := 1; v < n; v++ {
		edges = append(edges, pattern.Edge{I: rng.Intn(v), J: v})
	}
	for i := 0; i < rng.Intn(3); i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		e := pattern.Edge{I: a, J: b}
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
	t, err := pattern.New(ls, edges)
	if err != nil {
		panic(err)
	}
	return t
}

func TestTraverseQuiescence(t *testing.T) {
	// A ripple: every vertex forwards a counter to its neighbors until TTL
	// expires; the traversal must terminate and process every message.
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 50, 150, 2)
	e := NewEngine(g, Config{Ranks: 4, RanksPerNode: 2})
	var visits atomic.Int64
	type ripple struct{ ttl int }
	e.Traverse("test",
		func(seed func(graph.VertexID, any)) {
			seed(0, ripple{ttl: 3})
		},
		func(ctx *Ctx, target graph.VertexID, data any) {
			visits.Add(1)
			r := data.(ripple)
			if r.ttl == 0 {
				return
			}
			ctx.SendToNeighbors(target,
				func(int, graph.VertexID) bool { return true },
				func(int, graph.VertexID) any { return ripple{ttl: r.ttl - 1} })
		})
	if visits.Load() == 0 {
		t.Fatal("no visits")
	}
	// Message accounting: counted sends equal visits minus the seed.
	if got := e.Stats.Phase("test").Total(); got != visits.Load()-1 {
		t.Errorf("accounted %d messages for %d visits", got, visits.Load())
	}
}

func TestTraverseManyRounds(t *testing.T) {
	// Stress quiescence detection across many small traversals.
	rng := rand.New(rand.NewSource(2))
	g := randomGraph(rng, 30, 60, 2)
	e := NewEngine(g, Config{Ranks: 8, RanksPerNode: 4})
	for round := 0; round < 100; round++ {
		var count atomic.Int64
		e.Traverse("round",
			func(seed func(graph.VertexID, any)) {
				for v := 0; v < g.NumVertices(); v++ {
					seed(graph.VertexID(v), struct{}{})
				}
			},
			func(ctx *Ctx, target graph.VertexID, data any) {
				count.Add(1)
			})
		if count.Load() != int64(g.NumVertices()) {
			t.Fatalf("round %d: %d visits", round, count.Load())
		}
	}
}

func TestLocalityAccounting(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(3)), 40, 100, 2)
	e := NewEngine(g, Config{Ranks: 4, RanksPerNode: 2})
	// Send one message from every vertex's owner to vertex 0's owner.
	e.Traverse("acct",
		func(seed func(graph.VertexID, any)) { seed(1, struct{}{}) },
		func(ctx *Ctx, target graph.VertexID, data any) {
			if target == 1 {
				for v := 2; v < 10; v++ {
					ctx.Send(graph.VertexID(v), struct{}{})
				}
			}
		})
	p := e.Stats.Phase("acct")
	if p.Total() != 8 {
		t.Errorf("total = %d, want 8", p.Total())
	}
	// The sum of the three classes must equal the total.
	if p.IntraRank.Load()+p.InterRank.Load()+p.InterNode.Load() != p.Total() {
		t.Error("class sums inconsistent")
	}
}

// TestDistPipelineMatchesSequential checks the distributed pipeline against
// the sequential engine on random graphs. The seed-47 stream draws k from
// {1,2} and three rank counts per trial, in the same order as the retired
// compaction differential, so its graphs, templates and rank counts stay
// covered.
func TestDistPipelineMatchesSequential(t *testing.T) {
	streams := []struct {
		seed          int64
		trials        int
		minK, spanK   int
		enginesPerRun int
	}{
		{seed: 41, trials: 10, minK: 0, spanK: 3, enginesPerRun: 1},
		{seed: 47, trials: 6, minK: 1, spanK: 2, enginesPerRun: 3},
	}
	for _, st := range streams {
		rng := rand.New(rand.NewSource(st.seed))
		for trial := 0; trial < st.trials; trial++ {
			g := randomGraph(rng, 30+rng.Intn(30), 90+rng.Intn(60), 3)
			tp := randomTemplate(rng, 4, 3)
			k := st.minK + rng.Intn(st.spanK)

			cfg := core.DefaultConfig(k)
			cfg.CountMatches = true
			seq, err := core.Run(g, tp, cfg)
			if err != nil {
				t.Fatal(err)
			}

			for run := 0; run < st.enginesPerRun; run++ {
				ranks := 1 + rng.Intn(7)
				e := NewEngine(g, Config{Ranks: ranks, RanksPerNode: 2})
				opts := DefaultOptions(k)
				opts.CountMatches = true
				dres, err := Run(e, tp, opts)
				if err != nil {
					t.Fatal(err)
				}

				tag := fmt.Sprintf("seed %d trial %d ranks %d", st.seed, trial, ranks)
				if dres.Set.Count() != seq.Set.Count() {
					t.Fatalf("%s: prototype sets differ", tag)
				}
				for pi := range seq.Set.Protos {
					if !dres.Solutions[pi].Verts.Equal(seq.Solutions[pi].Verts) {
						t.Errorf("%s proto %d: vertex sets differ (dist=%d seq=%d)",
							tag, pi, dres.Solutions[pi].Verts.Count(), seq.Solutions[pi].Verts.Count())
					}
					if !dres.Solutions[pi].Edges.Equal(seq.Solutions[pi].Edges) {
						t.Errorf("%s proto %d: edge sets differ", tag, pi)
					}
					if dres.Solutions[pi].MatchCount != seq.Solutions[pi].MatchCount {
						t.Errorf("%s proto %d: counts %d vs %d",
							tag, pi, dres.Solutions[pi].MatchCount, seq.Solutions[pi].MatchCount)
					}
				}
			}
		}
	}
}

func TestDistPipelineAblations(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := randomGraph(rng, 40, 120, 3)
	tp := pattern.MustNew([]pattern.Label{0, 1, 2, 0},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 2, J: 3}, {I: 0, J: 3}})
	cfg := core.DefaultConfig(2)
	seq, err := core.Run(g, tp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{EditDistance: 2},
		{EditDistance: 2, WorkRecycling: true},
		{EditDistance: 2, Rebalance: true},
		{EditDistance: 2, LabelPairRefinement: true, FrequencyOrdering: true},
		DefaultOptions(2),
	} {
		e := NewEngine(g, Config{Ranks: 5, RanksPerNode: 2, DelegateThreshold: 10})
		dres, err := Run(e, tp, opts)
		if err != nil {
			t.Fatal(err)
		}
		for pi := range seq.Set.Protos {
			if !dres.Solutions[pi].Verts.Equal(seq.Solutions[pi].Verts) {
				t.Errorf("opts %+v proto %d: vertex sets differ", opts, pi)
			}
		}
	}
}

func TestDelegatesReduceRemoteMessages(t *testing.T) {
	// A hub-heavy graph: broadcasts from the hub must cost fewer remote
	// messages with delegation enabled.
	b := graph.NewBuilder(200)
	for v := 1; v < 200; v++ {
		b.AddEdge(0, graph.VertexID(v))
	}
	g := b.Build()

	run := func(threshold int) int64 {
		e := NewEngine(g, Config{Ranks: 8, RanksPerNode: 2, DelegateThreshold: threshold})
		e.Traverse("bcast",
			func(seed func(graph.VertexID, any)) { seed(0, struct{}{}) },
			func(ctx *Ctx, target graph.VertexID, data any) {
				if target == 0 {
					ctx.SendToNeighbors(target,
						func(int, graph.VertexID) bool { return true },
						func(int, graph.VertexID) any { return nil })
				}
			})
		return e.Stats.Phase("bcast").Remote()
	}
	without := run(0)
	with := run(50)
	if with >= without {
		t.Errorf("delegation did not reduce remote messages: with=%d without=%d", with, without)
	}
}

func TestBalancedOwners(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(5)), 100, 200, 2)
	e := NewEngine(g, Config{Ranks: 4})
	active := core.NewFullState(g).VertexBits()
	owners := BalancedOwners(active, 4)
	counts := make([]int, 4)
	for _, o := range owners {
		counts[o]++
	}
	for r, c := range counts {
		if c < 20 || c > 30 {
			t.Errorf("rank %d owns %d active vertices, want ~25", r, c)
		}
	}
	e.SetOwners(owners)
	if e.Owner(0) != int(owners[0]) {
		t.Error("SetOwners not applied")
	}
}

func TestCheckpointReload(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := randomGraph(rng, 60, 150, 3)
	s := core.NewEmptyState(g)
	for v := 0; v < 30; v++ {
		s.VertexBits().Set(v)
	}
	data, orig, err := Checkpoint(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(orig) != 30 {
		t.Fatalf("checkpointed %d vertices", len(orig))
	}
	e, err := Reload(data, Config{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if e.Graph().NumVertices() != 30 {
		t.Errorf("reloaded %d vertices", e.Graph().NumVertices())
	}
	for nv, ov := range orig {
		if e.Graph().Label(graph.VertexID(nv)) != g.Label(ov) {
			t.Errorf("label mismatch at %d", nv)
		}
	}
}

func TestParallelPrototypeSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 50, 150, 3)
	tp := pattern.MustNew([]pattern.Label{0, 1, 2},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}})
	var m core.Metrics
	mcs := core.MaxCandidateSet(g, tp, &m)

	// Search the same template 6 times in parallel; results must agree
	// with the sequential search.
	templates := make([]*pattern.Template, 6)
	for i := range templates {
		templates[i] = tp
	}
	res := SearchPrototypesParallel(mcs, templates, 3, 2, nil)
	want := core.SearchOn(context.Background(), mcs, tp, nil, nil, false, 0, &m)
	for i, sol := range res.Solutions {
		if !sol.Verts.Equal(want.Verts) {
			t.Errorf("parallel search %d differs", i)
		}
	}
	if res.RankSeconds <= 0 {
		t.Error("no rank-seconds recorded")
	}
}

func TestOrderByEstimatedCost(t *testing.T) {
	cheap := pattern.MustNew([]pattern.Label{5, 6}, []pattern.Edge{{I: 0, J: 1}})
	costly := pattern.MustNew([]pattern.Label{0, 0, 0},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}})
	freq := map[pattern.Label]int64{0: 1000, 5: 1, 6: 1}
	order := OrderByEstimatedCost([]*pattern.Template{cheap, costly}, freq)
	if order[0] != 1 {
		t.Errorf("expensive template should launch first: %v", order)
	}
}

func TestModeledTimeLocalityShape(t *testing.T) {
	// With fixed rank count, the modeled runtime should be worse at the
	// extremes (all ranks on one oversubscribed node; one rank per node,
	// all traffic on the network) than at an intermediate grouping.
	rng := rand.New(rand.NewSource(8))
	g := randomGraph(rng, 80, 240, 3)
	e := NewEngine(g, Config{Ranks: 48, RanksPerNode: 8})
	tp := randomTemplate(rng, 4, 3)
	if _, err := Run(e, tp, DefaultOptions(1)); err != nil {
		t.Fatal(err)
	}
	cm := DefaultCostModel()
	cm.CoresPerNode = 8
	oneNode := ModeledTime(e, cm, 48) // heavy oversubscription
	spread := ModeledTime(e, cm, 1)   // all remote traffic
	middle := ModeledTime(e, cm, 8)   // balanced
	if middle >= oneNode || middle >= spread {
		t.Errorf("locality curve not U-shaped: one-node=%.0f middle=%.0f spread=%.0f",
			oneNode, middle, spread)
	}
}

func TestLoadImbalanceMetric(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(9)), 50, 100, 2)
	e := NewEngine(g, Config{Ranks: 4})
	if got := LoadImbalance(e); got != 1 {
		t.Errorf("imbalance with no work = %v, want 1", got)
	}
	e.ComputePerRank[0].Store(100)
	e.ComputePerRank[1].Store(100)
	e.ComputePerRank[2].Store(100)
	e.ComputePerRank[3].Store(100)
	if got := LoadImbalance(e); got != 1.0 {
		t.Errorf("balanced imbalance = %v", got)
	}
	e.ComputePerRank[0].Store(400)
	if got := LoadImbalance(e); got <= 1.5 {
		t.Errorf("skewed imbalance = %v", got)
	}
	ResetComputeCounters(e)
	if LoadImbalance(e) != 1 {
		t.Error("reset failed")
	}
}

func TestReplicaSetMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	g := randomGraph(rng, 50, 150, 3)
	tp := pattern.MustNew([]pattern.Label{0, 1, 2, 0},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 2, J: 3}, {I: 0, J: 3}})
	var m core.Metrics
	mcs := core.MaxCandidateSet(g, tp, &m)

	// Prototypes of tp at k<=1.
	seq, err := core.Run(g, tp, core.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	var templates []*pattern.Template
	for _, p := range seq.Set.Protos {
		templates = append(templates, p.Template)
	}

	rs, err := NewReplicaSet(g, mcs, 3, Config{Ranks: 2, RanksPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Replicas() != 3 || rs.SubgraphSize() != mcs.NumActiveVertices() {
		t.Fatalf("replica shape: %d replicas, %d vertices", rs.Replicas(), rs.SubgraphSize())
	}
	opts := Options{CountMatches: true}
	sols := rs.Search(templates, nil, opts)
	for i := range templates {
		want := core.SearchOn(context.Background(), mcs, templates[i], nil, nil, true, 0, &m)
		if !sols[i].Verts.Equal(want.Verts) {
			t.Errorf("template %d: vertex sets differ (replica=%d want=%d)",
				i, sols[i].Verts.Count(), want.Verts.Count())
		}
		if !sols[i].Edges.Equal(want.Edges) {
			t.Errorf("template %d: edge sets differ", i)
		}
		if sols[i].MatchCount != want.MatchCount {
			t.Errorf("template %d: counts %d vs %d", i, sols[i].MatchCount, want.MatchCount)
		}
	}
}

func TestReplicaSlotOwner(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(82)), 30, 80, 2)
	for v := 0; v < g.NumVertices(); v++ {
		base := int(g.AdjOffset(graph.VertexID(v)))
		for i := range g.Neighbors(graph.VertexID(v)) {
			if got := replicaSlotOwner(g, base+i); got != graph.VertexID(v) {
				t.Fatalf("slot %d: owner %d, want %d", base+i, got, v)
			}
		}
	}
}

func TestDistEdgeLabeledMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	for trial := 0; trial < 5; trial++ {
		b := graph.NewBuilder(30)
		for v := 0; v < 30; v++ {
			b.SetLabel(graph.VertexID(v), graph.Label(rng.Intn(3)))
		}
		for i := 0; i < 90; i++ {
			u, v := rng.Intn(30), rng.Intn(30)
			if u != v {
				b.AddEdgeLabeled(graph.VertexID(u), graph.VertexID(v), graph.Label(rng.Intn(2)))
			}
		}
		g := b.Build()
		tp, err := pattern.NewEdgeLabeled(
			[]pattern.Label{0, 1, 2},
			[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}},
			[]pattern.Label{1, pattern.Wildcard, 0}, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig(1)
		cfg.CountMatches = true
		seq, err := core.Run(g, tp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(g, Config{Ranks: 4, RanksPerNode: 2})
		opts := DefaultOptions(1)
		opts.CountMatches = true
		dres, err := Run(e, tp, opts)
		if err != nil {
			t.Fatal(err)
		}
		for pi := range seq.Set.Protos {
			if !dres.Solutions[pi].Verts.Equal(seq.Solutions[pi].Verts) {
				t.Errorf("trial %d proto %d: vertex sets differ", trial, pi)
			}
			if dres.Solutions[pi].MatchCount != seq.Solutions[pi].MatchCount {
				t.Errorf("trial %d proto %d: counts differ", trial, pi)
			}
		}
	}
}

func TestCountMatchesDistAgainstSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	for trial := 0; trial < 8; trial++ {
		g := randomGraph(rng, 30, 90, 3)
		tp := randomTemplate(rng, 4, 3)
		e := NewEngine(g, Config{Ranks: 1 + rng.Intn(6), RanksPerNode: 2})
		s := core.NewFullState(g)
		var m core.Metrics
		want := core.CountOn(context.Background(), s, tp, &m)
		if got := CountMatchesDist(e, s, tp); got != want {
			t.Errorf("trial %d: dist count %d, want %d (template %v)", trial, got, want, tp)
		}
	}
}

func TestCountMatchesDistOnSolutionSubgraph(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	g := randomGraph(rng, 40, 120, 3)
	tp := pattern.MustNew([]pattern.Label{0, 1, 2},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}})
	cfg := core.DefaultConfig(1)
	cfg.CountMatches = true
	res, err := core.Run(g, tp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(g, Config{Ranks: 4, RanksPerNode: 2})
	for pi := range res.Set.Protos {
		s := res.SolutionState(pi)
		got := CountMatchesDist(e, s, res.Set.Protos[pi].Template)
		if got != res.Solutions[pi].MatchCount {
			t.Errorf("proto %d: dist count %d, want %d", pi, got, res.Solutions[pi].MatchCount)
		}
	}
	if e.Stats.Phase("enumerate").Total() == 0 {
		t.Error("no enumeration messages recorded")
	}
}

func TestCountMatchesDistSingleVertex(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(97)), 20, 40, 2)
	tp := pattern.MustNew([]pattern.Label{1}, nil)
	e := NewEngine(g, Config{Ranks: 3})
	s := core.NewFullState(g)
	var want int64
	for v := 0; v < g.NumVertices(); v++ {
		if g.Label(graph.VertexID(v)) == 1 {
			want++
		}
	}
	if got := CountMatchesDist(e, s, tp); got != want {
		t.Errorf("single-vertex count %d, want %d", got, want)
	}
}

func TestShrinkToRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	g := randomGraph(rng, 40, 120, 3)
	tp := pattern.MustNew([]pattern.Label{0, 1, 2},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}})
	full, err := core.Run(g, tp, core.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(g, Config{Ranks: 8, RanksPerNode: 4})
	opts := DefaultOptions(1)
	opts.ShrinkToRanks = 2
	dres, err := Run(e, tp, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Results unchanged.
	for pi := range full.Set.Protos {
		if !dres.Solutions[pi].Verts.Equal(full.Solutions[pi].Verts) {
			t.Errorf("proto %d: shrink changed the result", pi)
		}
	}
	// After the shrink, all active vertices are owned by ranks 0..1.
	dres.Candidate.VertexBits().ForEach(func(v int) {
		if e.Owner(graph.VertexID(v)) >= 2 {
			t.Errorf("active vertex %d owned by rank %d after shrink", v, e.Owner(graph.VertexID(v)))
		}
	})
}

func TestDistTopDownMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	for trial := 0; trial < 5; trial++ {
		g := randomGraph(rng, 30, 70, 3)
		tp := randomTemplate(rng, 4, 3)
		seq, err := core.RunTopDown(g, tp, core.DefaultConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(g, Config{Ranks: 4, RanksPerNode: 2})
		dres, err := RunTopDown(e, tp, DefaultOptions(2))
		if err != nil {
			t.Fatal(err)
		}
		if dres.FoundDist != seq.FoundDist {
			t.Errorf("trial %d: found at %d, sequential at %d", trial, dres.FoundDist, seq.FoundDist)
		}
		if seq.FoundDist >= 0 && !dres.MatchingVertices.Equal(seq.MatchingVertices) {
			t.Errorf("trial %d: matching vertex sets differ", trial)
		}
	}
}

func TestPartitionStrategies(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(104)), 100, 200, 2)
	block := NewEngine(g, Config{Ranks: 4})
	hash := NewEngine(g, Config{Ranks: 4, Partition: PartitionHash})
	// Block: contiguous ranges — owner non-decreasing in vertex id.
	for v := 1; v < g.NumVertices(); v++ {
		if block.Owner(graph.VertexID(v)) < block.Owner(graph.VertexID(v-1)) {
			t.Fatalf("block partition not monotone at %d", v)
		}
	}
	// Hash: scattered — some adjacent-id pair must differ in owner.
	scattered := false
	for v := 1; v < g.NumVertices(); v++ {
		if hash.Owner(graph.VertexID(v)) != hash.Owner(graph.VertexID(v-1)) {
			scattered = true
			break
		}
	}
	if !scattered {
		t.Error("hash partition looks contiguous")
	}
	// Both give identical pipeline results.
	tp := pattern.MustNew([]pattern.Label{0, 1}, []pattern.Edge{{I: 0, J: 1}})
	r1, err := Run(block, tp, DefaultOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(hash, tp, DefaultOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Solutions[0].Verts.Equal(r2.Solutions[0].Verts) {
		t.Error("partition strategy changed results")
	}
}

func TestSimulatedLatencyExposure(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(111)), 40, 120, 3)
	tp := pattern.MustNew([]pattern.Label{0, 1}, []pattern.Edge{{I: 0, J: 1}})
	run := func(cfg Config) time.Duration {
		e := NewEngine(g, cfg)
		start := time.Now()
		if _, err := Run(e, tp, DefaultOptions(0)); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	fast := run(Config{Ranks: 4, RanksPerNode: 2})
	slow := run(Config{Ranks: 4, RanksPerNode: 2, InterNodeDelay: 200 * time.Microsecond, InterRankDelay: 20 * time.Microsecond})
	if slow <= fast {
		t.Errorf("latency simulation had no effect: fast=%v slow=%v", fast, slow)
	}
	// Results unchanged under latency.
	e1 := NewEngine(g, Config{Ranks: 4, RanksPerNode: 2})
	r1, err := Run(e1, tp, DefaultOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	e2 := NewEngine(g, Config{Ranks: 4, RanksPerNode: 2, InterNodeDelay: 50 * time.Microsecond})
	r2, err := Run(e2, tp, DefaultOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Solutions[0].Verts.Equal(r2.Solutions[0].Verts) {
		t.Error("latency changed results")
	}
}

// TestDistSharedCacheMatchesSequential runs the distributed pipeline twice
// against one caller-owned shared NLCC store (Options.SharedCache): both the
// cold and the warm run must stay bit-identical to the sequential engine,
// and the warm run must actually recycle verdicts recorded by the cold one.
func TestDistSharedCacheMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	g := randomGraph(rng, 40, 120, 3)
	tp := pattern.MustNew([]pattern.Label{0, 1, 2, 0},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 2, J: 3}, {I: 0, J: 3}})
	cfg := core.DefaultConfig(2)
	cfg.CountMatches = true
	seq, err := core.Run(g, tp, cfg)
	if err != nil {
		t.Fatal(err)
	}

	shared := core.NewCacheBytes(g.NumVertices(), 0)
	opts := DefaultOptions(2)
	opts.CountMatches = true
	opts.SharedCache = shared
	for round := 0; round < 2; round++ {
		e := NewEngine(g, Config{Ranks: 4, RanksPerNode: 2})
		dres, err := Run(e, tp, opts)
		if err != nil {
			t.Fatal(err)
		}
		for pi := range seq.Set.Protos {
			if !dres.Solutions[pi].Verts.Equal(seq.Solutions[pi].Verts) {
				t.Errorf("round %d proto %d: vertex sets differ", round, pi)
			}
			if dres.Solutions[pi].MatchCount != seq.Solutions[pi].MatchCount {
				t.Errorf("round %d proto %d: counts %d vs %d",
					round, pi, dres.Solutions[pi].MatchCount, seq.Solutions[pi].MatchCount)
			}
		}
		if round == 0 {
			if shared.Sets() == 0 {
				t.Fatal("cold distributed run recorded nothing in the shared store")
			}
		} else if shared.Hits() == 0 {
			t.Fatal("warm distributed run recycled nothing from the shared store")
		}
	}
}
