// Command amatch runs an approximate pattern-matching query: it loads a
// background graph (edge-list format) and a search template, searches all
// prototypes within the given edit distance, and reports per-prototype
// solution sizes, match counts and (optionally) per-vertex match vectors.
//
// Usage:
//
//	amatch -graph g.txt -template t.txt -k 2 [-count] [-labels] [-topdown]
//	       [-ranks N] [-flips] [-features out.csv [-rates]] [-matches out.tsv]
//	       [-timeout 30s]
//	       [-no-symmetry] [-no-guards] [-no-relabel]
//
// The search honors -timeout and Ctrl-C: cancellation stops the pipeline
// mid-phase instead of running the query to completion.
//
// Passing several comma-separated files to -template enters batch mode: the
// graph is loaded once and every template is matched in turn, sharing one
// NLCC work-recycling store (-shared-nlcc) and answering templates
// isomorphic to an earlier one from the retained result
// (-result-cache-bytes) instead of re-running the pipeline.
//
// Graph format: "# vertices N", "v <id> <label>", "<u> <v>" edge lines.
// Template format: "v <index> <label>", "e <i> <j> [mandatory]".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	"approxmatch"
	"approxmatch/internal/core"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("amatch: ")
	var (
		graphPath    = flag.String("graph", "", "background graph edge-list file (required)")
		templatePath = flag.String("template", "", "search template file (required)")
		k            = flag.Int("k", 1, "edit distance (edge deletions)")
		count        = flag.Bool("count", false, "enumerate and count matches per prototype")
		labels       = flag.Bool("labels", false, "print per-vertex match vectors")
		topdown      = flag.Bool("topdown", false, "exploratory mode: grow k until matches appear")
		ranks        = flag.Int("ranks", 0, "run on the distributed engine with this many ranks (0 = sequential)")
		featuresOut  = flag.String("features", "", "write per-vertex prototype feature CSV to this file")
		rates        = flag.Bool("rates", false, "export participation counts instead of 0/1 bits (with -features)")
		matchesOut   = flag.String("matches", "", "write the base prototype's match enumeration (TSV) to this file")
		flips        = flag.Bool("flips", false, "also search single-edge-flip variants of the template")
		timeout      = flag.Duration("timeout", 0, "abort the search after this long (0 = no limit)")
		workers      = flag.Int("workers", 0, "worker count for the per-vertex constraint-checking kernels (0 = sequential)")
		maxWork      = flag.Int64("max-work", 0, "abort the search after this many pipeline work units, keeping completed levels as an exact partial result (0 = no limit)")
		maxBytes     = flag.Int64("max-bytes", 0, "bound the search's auxiliary allocations (state clones, containment states) to this many bytes (0 = no limit)")
		cacheBytes   = flag.Int64("cache-bytes", 0, "bound the work-recycling cache to this many bytes, evicting least-recently-used entries (0 = unbounded)")
		sharedNLCC   = flag.Bool("shared-nlcc", true, "with multiple -template files, share one work-recycling store across them so constraint walks recycle across queries")
		resultCache  = flag.Int64("result-cache-bytes", 64<<20, "with multiple -template files, retain up to this many bytes of results to answer isomorphic templates without re-running (0 = disabled)")
		noSymmetry   = flag.Bool("no-symmetry", false, "disable automorphism symmetry breaking in the counting/enumeration kernels (ablation; results unchanged)")
		noGuards     = flag.Bool("no-guards", false, "disable failure-guard pruning in the verification kernels (ablation; results unchanged)")
		noRelabel    = flag.Bool("no-relabel", false, "keep input vertex ids as internal ids instead of relabeling by descending degree (ablation; output always uses input ids)")
	)
	flag.Parse()
	if *graphPath == "" || *templatePath == "" {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	g, err := loadGraph(*graphPath)
	if err != nil {
		log.Fatal(err)
	}
	// Degree-ordered internal ids (cache locality for the kernels); every
	// output path translates back, so results print in input-file ids
	// either way.
	if !*noRelabel {
		g = graph.RelabelByDegree(g)
	}

	// Batch mode: -template a.txt,b.txt,... runs every template against the
	// one loaded graph, sharing the NLCC work-recycling store and reusing
	// results across isomorphic templates (the CLI shape of the server's
	// cross-query caching).
	if paths := strings.Split(*templatePath, ","); len(paths) > 1 {
		if *topdown || *flips || *ranks > 0 || *featuresOut != "" || *matchesOut != "" {
			log.Fatal("batch mode (multiple -template files) supports plain matching only; drop -topdown/-flips/-ranks/-features/-matches")
		}
		opts := approxmatch.DefaultOptions(*k)
		opts.CountMatches = *count
		opts.Workers = *workers
		opts.Budget = approxmatch.Budget{MaxWork: *maxWork, MaxBytes: *maxBytes}
		opts.CacheBytes = *cacheBytes
		opts.NoSymmetry = *noSymmetry
		opts.NoGuards = *noGuards
		fmt.Printf("graph: %v\n", graph.ComputeStats(g))
		runBatch(ctx, g, paths, opts, *count, *sharedNLCC, *cacheBytes, *resultCache, *timeout)
		return
	}

	t, err := loadTemplate(*templatePath)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %v\n", graph.ComputeStats(g))
	fmt.Printf("template: %v\n", t)

	if *topdown {
		topts := approxmatch.DefaultOptions(*k)
		topts.Workers = *workers
		topts.NoSymmetry = *noSymmetry
		topts.NoGuards = *noGuards
		res, err := approxmatch.ExploreContext(ctx, g, t, topts)
		if err != nil {
			fatalQuery(err, *timeout)
		}
		if res.FoundDist < 0 {
			fmt.Printf("no matches within k=%d (%d prototypes searched)\n", *k, res.PrototypesSearched)
			return
		}
		fmt.Printf("first matches at edit distance %d; %d vertices participate\n",
			res.FoundDist, res.MatchingVertices.Count())
		return
	}

	opts := approxmatch.DefaultOptions(*k)
	opts.CountMatches = *count
	opts.Workers = *workers
	opts.Budget = approxmatch.Budget{MaxWork: *maxWork, MaxBytes: *maxBytes}
	opts.CacheBytes = *cacheBytes
	opts.NoSymmetry = *noSymmetry
	opts.NoGuards = *noGuards

	if *flips {
		res, err := approxmatch.MatchFlipsContext(ctx, g, t, opts)
		if err != nil {
			fatalQuery(err, *timeout)
		}
		fmt.Printf("base: %d vertices", res.Base.Verts.Count())
		if *count {
			fmt.Printf(", %d matches", res.Base.MatchCount)
		}
		fmt.Println()
		for fi, f := range res.Flips {
			fmt.Printf("  flip %-3d (-edge %d, +edge %d-%d): %8d vertices",
				fi, f.Removed, f.Added.I, f.Added.J, res.Solutions[fi].Verts.Count())
			if *count {
				fmt.Printf(", %d matches", res.Solutions[fi].MatchCount)
			}
			fmt.Println()
		}
		return
	}

	if *ranks > 0 {
		e := approxmatch.NewDistEngine(g, approxmatch.DistConfig{Ranks: *ranks})
		dopts := approxmatch.DistOptions{
			EditDistance:        *k,
			WorkRecycling:       true,
			FrequencyOrdering:   true,
			LabelPairRefinement: true,
			CountMatches:        *count,
			Rebalance:           true,
			Workers:             *workers,
			Budget:              approxmatch.Budget{MaxWork: *maxWork, MaxBytes: *maxBytes},
		}
		res, err := approxmatch.MatchDistributedContext(ctx, e, t, dopts)
		if err != nil && (res == nil || !res.Partial) {
			fatalQuery(err, *timeout)
		}
		notePartial(res.Partial)
		fmt.Printf("prototypes: %d (classes), %d (edge subsets)\n", res.Set.Count(), res.Set.MaskCount())
		printPrototypes(res.Set, res.Solutions, res.Levels, *count)
		fmt.Printf("messages: %d total, %.1f%% remote\n",
			e.Stats.Total(), 100*float64(e.Stats.Remote())/float64(max64(e.Stats.Total(), 1)))
		return
	}

	res, err := approxmatch.MatchContext(ctx, g, t, opts)
	if err != nil && (res == nil || !res.Partial) {
		fatalQuery(err, *timeout)
	}
	notePartial(res.Partial)
	fmt.Printf("prototypes: %d (classes), %d (edge subsets)\n", res.Set.Count(), res.Set.MaskCount())
	printPrototypes(res.Set, res.Solutions, res.Levels, *count)
	fmt.Printf("work: %v\n", res.Metrics.String())
	fmt.Printf("phases: %s\n", res.Metrics.PhaseSummary())
	if *labels {
		// Iterate in external-id order so the listing is identical with and
		// without -no-relabel (MatchVector is internal-id-indexed).
		for e := 0; e < g.NumVertices(); e++ {
			mv := res.MatchVector(g.InternalID(graph.VertexID(e)))
			if len(mv) > 0 {
				fmt.Printf("v %d: %v\n", e, mv)
			}
		}
	}
	if res.Partial && (*featuresOut != "" || *matchesOut != "") {
		// Feature vectors and match enumerations are whole-run artifacts;
		// exporting unknown columns as zeros would fabricate non-matches.
		log.Fatal("refusing to export features/matches from a partial (budget-exhausted) result")
	}
	if *featuresOut != "" {
		f, err := os.Create(*featuresOut)
		if err != nil {
			log.Fatal(err)
		}
		opts := core.FeatureOptions{OnlyMatching: true, Rates: *rates}
		if err := res.WriteFeaturesCSV(f, opts); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("features written to %s\n", *featuresOut)
	}
	if *matchesOut != "" {
		f, err := os.Create(*matchesOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := res.WriteMatchesTSV(f, 0, 0); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("matches written to %s\n", *matchesOut)
	}
}

// maxBatchCanonCost bounds the permutations template canonicalization may
// enumerate per batch entry (factorial in same-color cell sizes); costlier
// templates run under their own numbering and are never reused.
const maxBatchCanonCost = 1 << 16

// runBatch matches each template in turn. With sharing enabled, all runs
// recycle constraint-walk verdicts through one store, and a template
// isomorphic to an earlier one is answered from the retained result without
// running the pipeline — both are correctness-neutral: cache content only
// skips pruning work, and isomorphic templates provably share their
// prototype sets and solutions (the pipeline runs on the canonical form).
func runBatch(ctx context.Context, g *approxmatch.Graph, paths []string, opts approxmatch.Options, count, sharedNLCC bool, cacheBytes, resultCacheBytes int64, timeout time.Duration) {
	if sharedNLCC {
		opts.SharedCache = approxmatch.NewSharedCache(g, cacheBytes)
	}
	type cached struct {
		res *approxmatch.Result
		src int
	}
	seen := make(map[string]cached)
	var retained int64
	for i, path := range paths {
		t, err := loadTemplate(path)
		if err != nil {
			log.Fatal(err)
		}
		run := t
		var key string
		cacheable := resultCacheBytes > 0 && pattern.CanonicalCost(t) <= maxBatchCanonCost
		if cacheable {
			run, _ = pattern.CanonicalForm(t)
			key = fmt.Sprintf("k%d|c%t|%s", opts.EditDistance, count, pattern.CanonicalKey(run))
			if c, ok := seen[key]; ok {
				fmt.Printf("template %d (%s): isomorphic to template %d, result reused\n", i, path, c.src)
				printPrototypes(c.res.Set, c.res.Solutions, c.res.Levels, count)
				continue
			}
		}
		res, err := approxmatch.MatchContext(ctx, g, run, opts)
		if err != nil && (res == nil || !res.Partial) {
			fatalQuery(err, timeout)
		}
		notePartial(res.Partial)
		fmt.Printf("template %d (%s): %v\n", i, path, t)
		printPrototypes(res.Set, res.Solutions, res.Levels, count)
		// Retain completed results for reuse while they fit the byte budget;
		// partial results reflect this run's budget, not the graph.
		if cacheable && !res.Partial {
			if fp := resultFootprint(res); retained+fp <= resultCacheBytes {
				seen[key] = cached{res, i}
				retained += fp
			}
		}
	}
	if opts.SharedCache != nil {
		fmt.Printf("shared nlcc store: %d sets resident, %d hits, %d evictions\n",
			opts.SharedCache.Sets(), opts.SharedCache.Hits(), opts.SharedCache.Evictions())
	}
}

// resultFootprint estimates the bytes a retained result keeps resident (the
// per-prototype solution bitsets dominate).
func resultFootprint(res *approxmatch.Result) int64 {
	var sum int64
	for _, sol := range res.Solutions {
		if sol == nil {
			continue
		}
		if sol.Verts != nil {
			sum += sol.Verts.Bytes()
		}
		if sol.Edges != nil {
			sum += sol.Edges.Bytes()
		}
	}
	return sum
}

func loadGraph(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadEdgeList(f)
}

func loadTemplate(path string) (*pattern.Template, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return pattern.Parse(f)
}

// fatalQuery reports a failed or aborted search with a cancellation-aware
// message.
func fatalQuery(err error, timeout time.Duration) {
	switch {
	case errors.Is(err, approxmatch.ErrBudgetExhausted):
		log.Fatalf("search aborted: %v (raise -max-work / -max-bytes)", err)
	case errors.Is(err, context.DeadlineExceeded):
		log.Fatalf("search aborted: exceeded -timeout %v", timeout)
	case errors.Is(err, context.Canceled):
		log.Fatal("search aborted: interrupted")
	default:
		log.Fatal(err)
	}
}

// notePartial prints the anytime-partial banner when a budget ran out
// mid-pipeline.
func notePartial(partial bool) {
	if partial {
		fmt.Println("NOTE: budget exhausted — partial result; completed levels keep the full precision/recall guarantee, the rest are unknown")
	}
}

// printPrototypes lists per-prototype results; on a partial run the
// prototypes of unfinished levels print as unknown instead of empty.
func printPrototypes(set *approxmatch.PrototypeSet, sols []*approxmatch.Solution, levels []core.LevelStats, count bool) {
	exact := make(map[int]bool, len(levels))
	for _, lv := range levels {
		exact[lv.Dist] = lv.Complete
	}
	for pi, p := range set.Protos {
		if !exact[p.Dist] || sols[pi] == nil {
			fmt.Printf("  δ=%d proto %-4d:  unknown (budget exhausted)\n", p.Dist, pi)
			continue
		}
		fmt.Printf("  δ=%d proto %-4d: %8d vertices", p.Dist, pi, sols[pi].Verts.Count())
		if count {
			fmt.Printf(", %d matches", sols[pi].MatchCount)
		}
		fmt.Println()
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
