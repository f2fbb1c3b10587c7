package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"approxmatch/internal/rmat"
)

// TestWorkerPanicIsolation injects a panic into one prototype-search
// goroutine and checks the level driver converts it into a *PanicError
// carrying the worker's stack — on Run (parallelism 1) and RunParallel alike
// the query fails, the process survives, and a subsequent clean run on the
// same inputs is unaffected.
func TestWorkerPanicIsolation(t *testing.T) {
	g := rmat.Generate(rmat.Graph500(7, 55))
	tp := randomDecoratedTemplate(rand.New(rand.NewSource(55)), g)
	cfg := DefaultConfig(2)
	want, err := Run(g, tp, cfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		run  func() (*Result, error)
	}{
		{"Run", func() (*Result, error) { return Run(g, tp, cfg) }},
		{"RunParallel", func() (*Result, error) { return RunParallel(g, tp, cfg, 2) }},
	} {
		testHookPrototypeSearch = func(pi int) {
			if pi == 0 {
				panic("injected worker bug")
			}
		}
		res, err := tc.run()
		testHookPrototypeSearch = nil
		if err == nil {
			t.Fatalf("%s: poisoned run succeeded", tc.name)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: err = %v (%T), want *PanicError", tc.name, err, err)
		}
		if pe.Val != "injected worker bug" {
			t.Fatalf("%s: PanicError.Val = %v", tc.name, pe.Val)
		}
		if !strings.Contains(string(pe.Stack), "goroutine") {
			t.Fatalf("%s: PanicError carries no stack", tc.name)
		}
		if res != nil {
			t.Fatalf("%s: panic must not yield a (possibly torn) result", tc.name)
		}

		clean, err := tc.run()
		if err != nil {
			t.Fatalf("%s: clean rerun failed: %v", tc.name, err)
		}
		assertSameResult(t, want, clean, tc.name+" post-panic rerun")
	}
}
