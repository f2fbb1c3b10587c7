package dist

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"approxmatch/internal/core"
	"approxmatch/internal/graph"
)

// chaosOpts is the pipeline configuration the differential suite runs
// under: every optimization on, matches counted so the enumeration path is
// exercised under faults too.
func chaosOpts() Options {
	o := DefaultOptions(1)
	o.CountMatches = true
	return o
}

// stripVolatile zeroes the Metrics fields that legitimately differ between
// a fault-free and a faulted run — wall times and the fault-plane counters
// themselves. Everything else (messages, tokens, iterations, searches) must
// be bit-identical: recovery replays the same logical computation.
func stripVolatile(m core.Metrics) core.Metrics {
	m.CandidateTime, m.LCCTime, m.NLCCTime, m.VerifyTime = 0, 0, 0, 0
	m.FaultDrops, m.FaultDups, m.FaultReorders, m.FaultDelays = 0, 0, 0, 0
	m.Retries, m.Redeliveries = 0, 0
	m.RankCheckpoints, m.CheckpointBytes = 0, 0
	m.RankCrashes, m.RankRestores, m.RankStalls = 0, 0, 0
	m.SockFrames, m.SockBytes, m.SockDials, m.SockConnDrops = 0, 0, 0, 0
	m.SockPartialWrites, m.SockDelays, m.SockWriteErrors, m.SockStaleFrames = 0, 0, 0, 0
	return m
}

// assertSameResult compares a faulted run against the fault-free baseline:
// Rho, per-prototype solution subgraphs and match counts, and the
// non-volatile work counters must all be bit-identical.
func assertSameResult(t *testing.T, label string, base, got *Result) {
	t.Helper()
	if !base.Rho.Equal(got.Rho) {
		t.Fatalf("%s: Rho differs from fault-free run", label)
	}
	if len(base.Solutions) != len(got.Solutions) {
		t.Fatalf("%s: %d solutions, want %d", label, len(got.Solutions), len(base.Solutions))
	}
	for pi, bs := range base.Solutions {
		gs := got.Solutions[pi]
		if !bs.Verts.Equal(gs.Verts) {
			t.Fatalf("%s: proto %d solution vertices differ", label, pi)
		}
		if !bs.Edges.Equal(gs.Edges) {
			t.Fatalf("%s: proto %d solution edges differ", label, pi)
		}
		if bs.MatchCount != gs.MatchCount {
			t.Fatalf("%s: proto %d match count %d, want %d", label, pi, gs.MatchCount, bs.MatchCount)
		}
	}
	if b, g := stripVolatile(base.VerifyMetrics), stripVolatile(got.VerifyMetrics); b != g {
		t.Fatalf("%s: work counters differ\nfault-free: %+v\nfaulted:    %+v", label, b, g)
	}
}

// faultClasses is the differential matrix: one entry per injected fault
// class, plus a combined schedule. Probabilities are aggressive enough
// that every class actually fires on the test workloads (verified by the
// counter assertions below).
func faultClasses() []struct {
	name   string
	faults Faults
	crash  bool
} {
	fast := 200 * time.Microsecond
	return []struct {
		name   string
		faults Faults
		crash  bool
	}{
		{name: "drop", faults: Faults{Drop: 0.3, RetryInterval: fast}},
		{name: "duplicate", faults: Faults{Duplicate: 0.5, RetryInterval: fast}},
		{name: "reorder", faults: Faults{Reorder: 0.5, RetryInterval: fast}},
		{name: "delay", faults: Faults{Delay: 0.5, MaxDelay: 300 * time.Microsecond, RetryInterval: fast}},
		{name: "crash", faults: Faults{RetryInterval: fast, Crash: &CrashEvent{Rank: 0, After: 3}}, crash: true},
		{name: "combined", faults: Faults{
			Drop: 0.15, Duplicate: 0.2, Reorder: 0.3, Delay: 0.2,
			MaxDelay: 200 * time.Microsecond, RetryInterval: fast,
			Crash: &CrashEvent{Rank: 0, After: 10},
		}, crash: true},
	}
}

// TestChaosDifferential is the tentpole acceptance suite: for every fault
// class, every rank count and several seeds, the pipeline's results must be
// bit-identical to the fault-free run on the same deployment.
func TestChaosDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 2; trial++ {
		g := randomGraph(rng, 25+rng.Intn(15), 80+rng.Intn(40), 3)
		tp := randomTemplate(rng, 4, 3)
		for _, ranks := range []int{1, 2, 4} {
			cfg := Config{Ranks: ranks, RanksPerNode: 2}
			base, err := Run(NewEngine(g, cfg), tp, chaosOpts())
			if err != nil {
				t.Fatalf("trial %d ranks %d: fault-free run: %v", trial, ranks, err)
			}
			for _, fc := range faultClasses() {
				for _, seed := range []int64{1, 7} {
					f := fc.faults
					f.Seed = seed
					ccfg := cfg
					ccfg.Faults = &f
					e := NewEngine(g, ccfg)
					got, err := Run(e, tp, chaosOpts())
					if err != nil {
						t.Fatalf("trial %d ranks %d %s seed %d: %v", trial, ranks, fc.name, seed, err)
					}
					label := fc.name
					assertSameResult(t, label, base, got)
					if fc.crash {
						fs := &e.Stats.Faults
						if fs.Crashes.Load() == 0 || fs.Restores.Load() == 0 || fs.Checkpoints.Load() == 0 {
							t.Fatalf("%s ranks %d: crash schedule never fired (crashes=%d restores=%d checkpoints=%d)",
								label, ranks, fs.Crashes.Load(), fs.Restores.Load(), fs.Checkpoints.Load())
						}
					}
				}
			}
		}
	}
}

// TestChaosFaultsActuallyFire pins the fault schedule to the workload: on a
// multi-rank run every message fault class must inject at least once, and
// drops must force retries and redeliveries — otherwise the differential
// suite would pass vacuously.
func TestChaosFaultsActuallyFire(t *testing.T) {
	rng := rand.New(rand.NewSource(405))
	g := randomGraph(rng, 40, 140, 3)
	tp := randomTemplate(rng, 4, 3)
	f := &Faults{
		Seed: 3, Drop: 0.2, Duplicate: 0.3, Reorder: 0.3, Delay: 0.3,
		MaxDelay: 200 * time.Microsecond, RetryInterval: 200 * time.Microsecond,
	}
	e := NewEngine(g, Config{Ranks: 4, RanksPerNode: 2, Faults: f})
	if _, err := Run(e, tp, chaosOpts()); err != nil {
		t.Fatal(err)
	}
	fs := &e.Stats.Faults
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"drops", fs.Dropped.Load()},
		{"duplicates", fs.Duplicated.Load()},
		{"reorders", fs.Reordered.Load()},
		{"delays", fs.Delayed.Load()},
		{"retries", fs.Retries.Load()},
		{"redeliveries", fs.Redeliveries.Load()},
		{"acks", fs.AcksSent.Load()},
	} {
		if c.v == 0 {
			t.Errorf("%s = 0, schedule never exercised that class", c.name)
		}
	}
}

// TestChaosTopDownDifferential runs the exploratory entry point under the
// combined fault schedule.
func TestChaosTopDownDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(406))
	g := randomGraph(rng, 30, 100, 3)
	tp := randomTemplate(rng, 4, 3)
	opts := DefaultOptions(2)
	base, err := RunTopDown(NewEngine(g, Config{Ranks: 4, RanksPerNode: 2}), tp, opts)
	if err != nil {
		t.Fatal(err)
	}
	f := &Faults{
		Seed: 11, Drop: 0.2, Duplicate: 0.2, Reorder: 0.3, Delay: 0.2,
		MaxDelay: 200 * time.Microsecond, RetryInterval: 200 * time.Microsecond,
		Crash: &CrashEvent{Rank: 1, After: 5},
	}
	got, err := RunTopDown(NewEngine(g, Config{Ranks: 4, RanksPerNode: 2, Faults: f}), tp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.FoundDist != base.FoundDist {
		t.Fatalf("FoundDist = %d, want %d", got.FoundDist, base.FoundDist)
	}
	if got.PrototypesSearched != base.PrototypesSearched {
		t.Fatalf("PrototypesSearched = %d, want %d", got.PrototypesSearched, base.PrototypesSearched)
	}
	if !base.MatchingVertices.Equal(got.MatchingVertices) {
		t.Fatal("MatchingVertices differ from fault-free run")
	}
	for pi, bs := range base.Solutions {
		gs := got.Solutions[pi]
		if (bs == nil) != (gs == nil) {
			t.Fatalf("proto %d: solution presence differs", pi)
		}
		if bs != nil && (!bs.Verts.Equal(gs.Verts) || !bs.Edges.Equal(gs.Edges)) {
			t.Fatalf("proto %d: solution subgraph differs", pi)
		}
	}
	if b, g := stripVolatile(base.VerifyMetrics), stripVolatile(got.VerifyMetrics); b != g {
		t.Fatalf("work counters differ\nfault-free: %+v\nfaulted:    %+v", b, g)
	}
}

// TestChaosFTNoFaults checks the all-zero Faults mode (the overhead
// configuration kernelbench measures): the dedup/ack machinery runs but no
// fault may be injected, and results stay bit-identical.
func TestChaosFTNoFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(407))
	g := randomGraph(rng, 30, 100, 3)
	tp := randomTemplate(rng, 4, 3)
	cfg := Config{Ranks: 4, RanksPerNode: 2}
	base, err := Run(NewEngine(g, cfg), tp, chaosOpts())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &Faults{}
	e := NewEngine(g, cfg)
	got, err := Run(e, tp, chaosOpts())
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "ft-no-faults", base, got)
	fs := &e.Stats.Faults
	if fs.Dropped.Load()+fs.Duplicated.Load()+fs.Reordered.Load()+fs.Delayed.Load() != 0 {
		t.Error("faults injected with all-zero probabilities")
	}
	if fs.Crashes.Load()+fs.Stalls.Load() != 0 {
		t.Error("events fired without a schedule")
	}
	if fs.AcksSent.Load() == 0 {
		t.Error("no acks sent — fault-tolerant path not engaged")
	}
}

// TestChaosStallDeadline injects a permanent rank stall: the traversal must
// terminate with ErrQuiescenceDeadline instead of livelocking, within the
// configured deadline (not the test timeout).
func TestChaosStallDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(408))
	g := randomGraph(rng, 30, 100, 3)
	f := &Faults{
		Seed:     1,
		Stall:    &StallEvent{Rank: 0, After: 0},
		Deadline: 300 * time.Millisecond,
	}
	e := NewEngine(g, Config{Ranks: 2, RanksPerNode: 2, Faults: f})
	// A rank-0-owned vertex receives several messages; the first delivery
	// stalls the rank forever, so its remaining work can never be acked.
	var v0 graph.VertexID
	for v := 0; v < g.NumVertices(); v++ {
		if e.Owner(graph.VertexID(v)) == 0 {
			v0 = graph.VertexID(v)
			break
		}
	}
	start := time.Now()
	err := func() (err error) {
		defer core.RecoverCancel(&err)
		e.Traverse("stalltest",
			func(seed func(graph.VertexID, any)) {
				for i := 0; i < 4; i++ {
					seed(v0, struct{}{})
				}
			},
			func(ctx *Ctx, target graph.VertexID, data any) {})
		return nil
	}()
	if !errors.Is(err, ErrQuiescenceDeadline) {
		t.Fatalf("err = %v, want ErrQuiescenceDeadline", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("deadline took %v to fire", el)
	}
	if e.Stats.Faults.Stalls.Load() == 0 {
		t.Error("stall never fired")
	}
}

// TestChaosStallDeadlinePipeline is the end-to-end version: a full
// distributed run with a permanently stalled rank returns an error through
// the public API rather than hanging.
func TestChaosStallDeadlinePipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(409))
	g := randomGraph(rng, 30, 100, 3)
	tp := randomTemplate(rng, 4, 3)
	f := &Faults{
		Stall:    &StallEvent{Rank: 1, After: 0},
		Deadline: 300 * time.Millisecond,
	}
	_, err := Run(NewEngine(g, Config{Ranks: 4, RanksPerNode: 2, Faults: f}), tp, chaosOpts())
	if !errors.Is(err, ErrQuiescenceDeadline) {
		t.Fatalf("err = %v, want ErrQuiescenceDeadline", err)
	}
}

// TestChaosTransientStall checks the complementary case: a stall shorter
// than the deadline delays the traversal but does not fail it.
func TestChaosTransientStall(t *testing.T) {
	rng := rand.New(rand.NewSource(410))
	g := randomGraph(rng, 25, 80, 3)
	tp := randomTemplate(rng, 4, 3)
	cfg := Config{Ranks: 2, RanksPerNode: 2}
	base, err := Run(NewEngine(g, cfg), tp, chaosOpts())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &Faults{Stall: &StallEvent{Rank: 0, After: 2, For: 20 * time.Millisecond}}
	e := NewEngine(g, cfg)
	got, err := Run(e, tp, chaosOpts())
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "transient-stall", base, got)
	if e.Stats.Faults.Stalls.Load() == 0 {
		t.Error("stall never fired")
	}
}

// TestChaosCheckpointRoundTrip exercises the serialization directly:
// restoring a rank from its own checkpoint after scribbling over its state
// must reproduce the original arrays exactly, including wiping the owned
// volatile snapshots.
func TestChaosCheckpointRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(411))
	g := randomGraph(rng, 50, 150, 3)
	e := NewEngine(g, Config{Ranks: 4, RanksPerNode: 2})
	s := newDistState(e)
	for v := 0; v < g.NumVertices(); v++ {
		if rng.Intn(4) > 0 {
			s.active[v] = true
			s.omega[v] = rng.Uint64() | 1
		}
	}
	for i := range s.edgeOn {
		s.edgeOn[i] = rng.Intn(2) == 0
		s.nbrOmega[i] = rng.Uint64()
		s.nbrFresh[i] = rng.Intn(2) == 0
	}
	// Deactivated vertices hold no durable edge state (the deactivate
	// invariant the compact layout relies on).
	for v := 0; v < g.NumVertices(); v++ {
		if !s.active[v] {
			s.omega[v] = 0
			base := int(g.AdjOffset(graph.VertexID(v)))
			for i := range g.Neighbors(graph.VertexID(v)) {
				s.edgeOn[base+i] = false
			}
		}
	}

	const rank = 1
	ckpt := s.checkpointRank(rank)
	wantActive := append([]bool(nil), s.active...)
	wantOmega := append([]uint64(nil), s.omega...)
	wantEdge := append([]bool(nil), s.edgeOn...)

	// Scribble over the rank's owned state, then restore.
	for v := 0; v < g.NumVertices(); v++ {
		if e.Owner(graph.VertexID(v)) != rank {
			continue
		}
		s.active[v] = !s.active[v]
		s.omega[v] ^= 0xdeadbeef
		base := int(g.AdjOffset(graph.VertexID(v)))
		for i := range g.Neighbors(graph.VertexID(v)) {
			s.edgeOn[base+i] = !s.edgeOn[base+i]
		}
	}
	s.restoreRank(rank, ckpt)

	for v := 0; v < g.NumVertices(); v++ {
		vid := graph.VertexID(v)
		if e.Owner(vid) != rank {
			// Other ranks' state must be untouched.
			if s.active[v] != wantActive[v] || s.omega[v] != wantOmega[v] {
				t.Fatalf("vertex %d (foreign rank) modified by restore", v)
			}
			continue
		}
		if s.active[v] != wantActive[v] {
			t.Fatalf("vertex %d: active = %v, want %v", v, s.active[v], wantActive[v])
		}
		if s.omega[v] != wantOmega[v] {
			t.Fatalf("vertex %d: omega = %#x, want %#x", v, s.omega[v], wantOmega[v])
		}
		base := int(g.AdjOffset(vid))
		for i := range g.Neighbors(vid) {
			if s.edgeOn[base+i] != wantEdge[base+i] {
				t.Fatalf("vertex %d slot %d: edgeOn = %v, want %v", v, i, s.edgeOn[base+i], wantEdge[base+i])
			}
			if s.nbrOmega[base+i] != 0 || s.nbrFresh[base+i] {
				t.Fatalf("vertex %d slot %d: volatile snapshot not wiped", v, i)
			}
		}
	}
}

// TestChaosDeterministicSchedule pins the schedule function: a
// transmission's fate is a pure function of (seed, phase, src, seq,
// attempt). Replaying the same transmission identities through fresh
// chaos transports must reproduce the exact per-message outcomes, a
// different seed must produce a different schedule, and a retry
// (attempt+1) must re-roll rather than repeat a drop.
func TestChaosDeterministicSchedule(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(412)), 8, 20, 2)
	replay := func(seed int64) (fates []string, stats [4]int64) {
		f := Faults{Seed: seed, Drop: 0.25, Duplicate: 0.25, Reorder: 0.25, Delay: 0.25}
		fv := f.withDefaults()
		e := NewEngine(g, Config{Ranks: 2, RanksPerNode: 2})
		tr := &traversal{e: e, phase: e.Stats.Phase("det"), phaseName: "det",
			boxes: make([]*mailbox, 2), f: &fv, ft: true}
		for i := range tr.boxes {
			tr.boxes[i] = &mailbox{}
			tr.boxes[i].cond = sync.NewCond(&tr.boxes[i].mu)
		}
		ct := &chaosTransport{t: tr, f: &fv, s: mailboxSink{tr}}
		fs := &e.Stats.Faults
		for seq := uint64(1); seq <= 200; seq++ {
			before := [4]int64{fs.Dropped.Load(), fs.Duplicated.Load(), fs.Reordered.Load(), fs.Delayed.Load()}
			qlen := len(tr.boxes[1].q)
			ct.deliver(1, envelope{from: 0, seq: seq}, faultKey{src: 0, seq: seq, attempt: 1})
			fate := fmt.Sprintf("d%d u%d r%d l%d q%d",
				fs.Dropped.Load()-before[0], fs.Duplicated.Load()-before[1],
				fs.Reordered.Load()-before[2], fs.Delayed.Load()-before[3],
				len(tr.boxes[1].q)-qlen)
			fates = append(fates, fate)
		}
		stats = [4]int64{fs.Dropped.Load(), fs.Duplicated.Load(), fs.Reordered.Load(), fs.Delayed.Load()}
		return fates, stats
	}
	f1, s1 := replay(99)
	f2, s2 := replay(99)
	if s1 != s2 {
		t.Fatalf("same seed, different totals: %v vs %v", s1, s2)
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("seq %d: fate %q vs %q — schedule not a pure function of identity", i+1, f1[i], f2[i])
		}
	}
	_, s3 := replay(100)
	if s1 == s3 {
		t.Fatal("different seeds produced identical schedules")
	}
	for _, c := range s1 {
		if c == 0 {
			t.Fatalf("a fault class never fired over 200 transmissions: %v", s1)
		}
	}
	// Retry re-roll: for any seq dropped at attempt 1, some later attempt
	// must survive (the at-least-once argument depends on it).
	fv := Faults{Seed: 99, Drop: 0.25}.withDefaults()
	for seq := uint64(1); seq <= 50; seq++ {
		if roll(faultHash(fv.Seed, "det", 0, seq, 1), 0) >= fv.Drop {
			continue
		}
		survived := false
		for attempt := 2; attempt <= 20; attempt++ {
			if roll(faultHash(fv.Seed, "det", 0, seq, attempt), 0) >= fv.Drop {
				survived = true
				break
			}
		}
		if !survived {
			t.Fatalf("seq %d dropped across 20 attempts at p=0.25 — attempts not re-rolled", seq)
		}
	}
}

// TestChaosQuiescenceExactness re-runs the quiescence accounting check on
// the fault-tolerant path: with faults injected, every logical message is
// still visited exactly once (dedup), so the visit count and per-phase
// message accounting match the perfect run.
func TestChaosQuiescenceExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(413))
	g := randomGraph(rng, 50, 150, 2)
	count := func(f *Faults) (int64, int64) {
		e := NewEngine(g, Config{Ranks: 4, RanksPerNode: 2, Faults: f})
		var visits atomic.Int64
		type ripple struct{ ttl int }
		e.Traverse("test",
			func(seed func(graph.VertexID, any)) { seed(0, ripple{ttl: 3}) },
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
		return visits.Load(), e.Stats.Phase("test").Total()
	}
	baseVisits, baseMsgs := count(nil)
	for _, f := range []*Faults{
		{},
		{Seed: 5, Drop: 0.3, RetryInterval: 200 * time.Microsecond},
		{Seed: 5, Duplicate: 0.5},
		{Seed: 5, Reorder: 0.5},
	} {
		visits, msgs := count(f)
		if visits != baseVisits {
			t.Errorf("faults %+v: %d visits, want %d", f, visits, baseVisits)
		}
		if msgs != baseMsgs {
			t.Errorf("faults %+v: %d accounted messages, want %d", f, msgs, baseMsgs)
		}
	}
}
