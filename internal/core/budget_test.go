package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"approxmatch/internal/rmat"
)

// measureWork runs the pipeline under an effectively unlimited tracker and
// returns the result plus the total work units the run charged — the yard
// stick the partial-result differential scales its budgets from.
func measureWork(t *testing.T, run func(ctx context.Context) (*Result, error)) (*Result, int64) {
	t.Helper()
	tracker := NewBudgetTracker(Budget{MaxWork: 1 << 62})
	res, err := run(WithBudgetTracker(context.Background(), tracker))
	if err != nil {
		t.Fatal(err)
	}
	return res, tracker.WorkUsed()
}

// assertPartialPrefix checks the anytime-partial contract against a full
// reference run: levels form a complete-prefix (from MaxDist downward), every
// prototype on a completed level is bit-identical to the reference — column
// in Rho included — and incomplete prototypes are reported unknown (nil).
func assertPartialPrefix(t *testing.T, want, got *Result, tag string) {
	t.Helper()
	if len(got.Levels) != len(want.Levels) {
		t.Fatalf("%s: %d level entries, want %d", tag, len(got.Levels), len(want.Levels))
	}
	// Complete levels must be a prefix of the bottom-up order; once one
	// level is incomplete, all below it must be too.
	incomplete := false
	for _, lv := range got.Levels {
		if lv.Complete && incomplete {
			t.Fatalf("%s: level %d complete below an incomplete level", tag, lv.Dist)
		}
		if !lv.Complete {
			incomplete = true
		}
	}
	if got.Partial != incomplete {
		t.Fatalf("%s: Partial=%v but incomplete levels=%v", tag, got.Partial, incomplete)
	}
	exact := make(map[int]bool)
	for _, lv := range got.Levels {
		exact[lv.Dist] = lv.Complete
	}
	n := got.Rho.Rows()
	for pi, p := range got.Set.Protos {
		if !exact[p.Dist] {
			if got.Solutions[pi] != nil {
				t.Errorf("%s: proto %d on incomplete level has a solution", tag, pi)
			}
			continue
		}
		ws, gs := want.Solutions[pi], got.Solutions[pi]
		if gs == nil {
			t.Fatalf("%s: proto %d on complete level %d missing solution", tag, pi, p.Dist)
		}
		if !ws.Verts.Equal(gs.Verts) || !ws.Edges.Equal(gs.Edges) {
			t.Errorf("%s: proto %d bits differ from full run", tag, pi)
		}
		if ws.MatchCount != gs.MatchCount {
			t.Errorf("%s: proto %d count %d vs %d", tag, pi, gs.MatchCount, ws.MatchCount)
		}
		for v := 0; v < n; v++ {
			if want.Rho.Get(v, pi) != got.Rho.Get(v, pi) {
				t.Fatalf("%s: Rho column %d differs at vertex %d", tag, pi, v)
			}
		}
	}
}

// TestPartialDifferentialRMAT is the anytime-partial property test: on
// seeded R-MAT graphs with randomized templates, a run whose work budget is a
// fraction of the full run's work must return a Partial result whose
// completed levels are bit-identical to the unbudgeted run — across the
// sequential path, the superstep kernels and the prototype-parallel driver,
// and with compaction forced on.
func TestPartialDifferentialRMAT(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	partials := 0
	for trial := 0; trial < 8; trial++ {
		p := rmat.Graph500(7, int64(4000+trial))
		p.EdgeFactor = 4
		g := rmat.Generate(p)
		tp := randomDecoratedTemplate(rng, g)
		cfg := DefaultConfig(1 + trial%2)
		cfg.CountMatches = true
		if trial%2 == 0 {
			cfg.CompactBelow = 1.1 // always below threshold: force compaction
		}

		variants := []struct {
			tag string
			run func(ctx context.Context, c Config) (*Result, error)
		}{
			{"seq", func(ctx context.Context, c Config) (*Result, error) {
				return RunContext(ctx, g, tp, c)
			}},
			{"workers", func(ctx context.Context, c Config) (*Result, error) {
				c.Workers = 3
				return RunContext(ctx, g, tp, c)
			}},
			{"parallel", func(ctx context.Context, c Config) (*Result, error) {
				return RunParallelContext(ctx, g, tp, c, 3)
			}},
		}
		for _, v := range variants {
			want, total := measureWork(t, func(ctx context.Context) (*Result, error) {
				return v.run(ctx, cfg)
			})
			for _, frac := range []float64{0.05, 0.3, 0.7} {
				bcfg := cfg
				bcfg.Budget = Budget{MaxWork: int64(frac * float64(total))}
				res, err := v.run(context.Background(), bcfg)
				if err != nil {
					if !errors.Is(err, ErrBudgetExhausted) {
						t.Fatalf("%s frac=%v: unexpected error %v", v.tag, frac, err)
					}
					if res == nil || !res.Partial {
						t.Fatalf("%s frac=%v: budget error without partial result", v.tag, frac)
					}
					partials++
				} else if res.Partial {
					t.Fatalf("%s frac=%v: partial result without error", v.tag, frac)
				}
				assertPartialPrefix(t, want, res, v.tag)
			}
		}
	}
	if partials == 0 {
		t.Fatal("no trial ever went partial; the differential is vacuous")
	}
}

// TestPartialCandidatePhase exhausts the budget during candidate-set
// generation: the result must be partial with zero completed levels and every
// prototype unknown.
func TestPartialCandidatePhase(t *testing.T) {
	g := rmat.Generate(rmat.Graph500(7, 99))
	tp := randomDecoratedTemplate(rand.New(rand.NewSource(3)), g)
	cfg := DefaultConfig(2)
	cfg.Budget = Budget{MaxWork: 1}
	res, err := Run(g, tp, cfg)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want budget exhaustion", err)
	}
	if res == nil || !res.Partial {
		t.Fatal("no partial result")
	}
	for _, lv := range res.Levels {
		if lv.Complete {
			t.Fatalf("level %d marked complete under a 1-unit budget", lv.Dist)
		}
	}
	for pi, sol := range res.Solutions {
		if sol != nil {
			t.Fatalf("prototype %d has a solution under a 1-unit budget", pi)
		}
	}
}

// TestPartialMetricsFold is the regression test for the abort accounting:
// work performed before a budget abort must still reach Result.Metrics on
// both the sequential and the prototype-parallel path, so /metrics never
// undercounts aborted queries.
func TestPartialMetricsFold(t *testing.T) {
	g := rmat.Generate(rmat.Graph500(7, 123))
	tp := randomDecoratedTemplate(rand.New(rand.NewSource(17)), g)
	cfg := DefaultConfig(2)
	_, total := measureWork(t, func(ctx context.Context) (*Result, error) {
		return RunContext(ctx, g, tp, cfg)
	})
	for _, parallel := range []int{0, 3} {
		bcfg := cfg
		bcfg.Budget = Budget{MaxWork: total / 2}
		var res *Result
		var err error
		if parallel > 0 {
			res, err = RunParallel(g, tp, bcfg, parallel)
		} else {
			res, err = Run(g, tp, bcfg)
		}
		if !errors.Is(err, ErrBudgetExhausted) {
			t.Fatalf("parallel=%d: err = %v, want budget exhaustion", parallel, err)
		}
		if sum := counterVector(&res.Metrics); func() int64 {
			var s int64
			for _, c := range sum {
				s += c
			}
			return s
		}() == 0 {
			t.Fatalf("parallel=%d: aborted run folded no metrics", parallel)
		}
	}
}

// TestWallBudgetPartial checks the wall dimension alone also downgrades to a
// partial result.
func TestWallBudgetPartial(t *testing.T) {
	g := rmat.Generate(rmat.Graph500(8, 7))
	tp := randomDecoratedTemplate(rand.New(rand.NewSource(8)), g)
	cfg := DefaultConfig(2)
	cfg.Budget = Budget{MaxWall: time.Nanosecond}
	res, err := Run(g, tp, cfg)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want budget exhaustion", err)
	}
	if res == nil || !res.Partial {
		t.Fatal("no partial result from wall exhaustion")
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Dim != "wall" {
		t.Fatalf("err = %#v, want wall-dimension BudgetError", err)
	}
}

// TestBudgetTrackerDims exercises the tracker's three dimensions directly.
func TestBudgetTrackerDims(t *testing.T) {
	tr := NewBudgetTracker(Budget{MaxWork: 10})
	if err := tr.charge(9); err != nil {
		t.Fatal(err)
	}
	if err := tr.charge(2); err == nil {
		t.Fatal("work over-charge accepted")
	} else if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("work error %v not ErrBudgetExhausted", err)
	}

	tr = NewBudgetTracker(Budget{MaxBytes: 100})
	if !tr.tryChargeBytes(60) || tr.tryChargeBytes(60) {
		t.Fatal("byte accounting wrong: want first 60 accepted, second declined")
	}
	if tr.BytesUsed() != 60 {
		t.Fatalf("BytesUsed = %d, want 60 (declined charge must not stick)", tr.BytesUsed())
	}
	if err := tr.chargeBytes(41); err == nil {
		t.Fatal("byte over-charge accepted")
	}

	if NewBudgetTracker(Budget{}) != nil {
		t.Fatal("zero budget must yield a nil (unlimited) tracker")
	}
}

// TestAccountingScheduleIndependent is the guard against forked probes
// leaking uncharged ticks: on seeded R-MAT graphs with randomized k=2
// templates, the bytes a run charges must not depend on the prototype
// parallelism or the kernel worker count, and — with work recycling off, so
// shared-cache hits cannot depend on interleaving — neither may the work.
// Workers 0 is the Gauss-Seidel reference schedule, which legitimately does
// different work, so it joins the bytes axis only. Parallelism 1 goes
// through RunContext, so Run and RunParallel are held to one ledger; every
// other trial forces compaction so compacted views are charged too.
func TestAccountingScheduleIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 6; trial++ {
		p := rmat.Graph500(7, int64(5000+trial))
		p.EdgeFactor = 4
		g := rmat.Generate(p)
		tp := randomDecoratedTemplate(rng, g)
		for _, recycle := range []bool{true, false} {
			cfg := DefaultConfig(2)
			cfg.CountMatches = true
			cfg.WorkRecycling = recycle
			if trial%2 == 0 {
				cfg.CompactBelow = 1.1 // always below threshold: force compaction
			}
			var wantBytes, wantWork int64 = -1, -1
			for _, parallelism := range []int{1, 2, 4} {
				for _, workers := range []int{0, 1, 2, 4} {
					c := cfg
					c.Workers = workers
					tracker := NewBudgetTracker(Budget{MaxWork: 1 << 62, MaxBytes: 1 << 62})
					ctx := WithBudgetTracker(context.Background(), tracker)
					var err error
					if parallelism == 1 {
						_, err = RunContext(ctx, g, tp, c)
					} else {
						_, err = RunParallelContext(ctx, g, tp, c, parallelism)
					}
					if err != nil {
						t.Fatal(err)
					}
					tag := fmt.Sprintf("trial %d recycle=%v parallelism=%d workers=%d", trial, recycle, parallelism, workers)
					if wantBytes < 0 {
						wantBytes = tracker.BytesUsed()
					} else if got := tracker.BytesUsed(); got != wantBytes {
						t.Errorf("%s: %d bytes charged, want %d", tag, got, wantBytes)
					}
					if recycle || workers == 0 {
						continue
					}
					if wantWork < 0 {
						wantWork = tracker.WorkUsed()
					} else if got := tracker.WorkUsed(); got != wantWork {
						t.Errorf("%s: %d work units charged, want %d", tag, got, wantWork)
					}
				}
			}
		}
	}
}
