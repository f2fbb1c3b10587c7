package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"approxmatch/internal/core"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
	"approxmatch/internal/prototype"
	"approxmatch/internal/wal"
)

// The traced run replays a workload's exact request sequence in-process,
// calling each layer's public entry points with that request's inputs and
// recording a span around every call. Spans inside the program are a later
// change; these are measured from outside, at the layer boundaries.

// span is one timed interval. Derived spans (core.candidate, core.level_d*)
// come from the pipeline's own Result.Metrics and Result.Levels: their
// durations are the program's, laid back to back from the parent's start.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = none
	Req     int    `json:"req"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the replay began
	EndNS   int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

// tracer keeps spans in memory; with on unset it records nothing, which is
// the untraced replay the tracing overhead is measured against.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func (t *tracer) begin(req, parent int, name string) int {
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, StartNS: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t.on {
		t.spans[id-1].EndNS = time.Since(t.t0).Nanoseconds()
	}
}

// derive appends a child of parent lasting d, starting at *at, and moves
// *at past it.
func (t *tracer) derive(req, parent int, name string, at *int64, d time.Duration) {
	if !t.on {
		return
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, StartNS: *at, EndNS: *at + d.Nanoseconds()})
	*at += d.Nanoseconds()
}

// serverShape mirrors amatchd's default scheduling (server.Config
// defaults): slots = GOMAXPROCS/2, per-query prototype parallelism and
// kernel workers = GOMAXPROCS/slots, sequential kernels at one core a slot.
func serverShape() (parallelism, workers int) {
	procs := runtime.GOMAXPROCS(0)
	slots := procs / 2
	if slots < 1 {
		slots = 1
	}
	parallelism = procs / slots
	if parallelism < 2 {
		parallelism = 2
	}
	workers = procs / slots
	if workers <= 1 {
		workers = 0
	}
	return parallelism, workers
}

// replayer holds the in-process stand-in for one amatchd: the current graph
// epoch, the shared NLCC store and the write-ahead log.
type replayer struct {
	b      *bench
	tr     *tracer
	g      *graph.Graph
	seed   *graph.Graph
	epoch  uint64
	shared *core.Cache
	wlog   *wal.Log
	walDir string
	rec    *wal.Recovery
	runs   []coreRun
}

// coreRun keeps what the per-layer figures need from one pipeline run (the
// whole Result would pin its bitvectors for the rest of the replay).
type coreRun struct {
	m      core.Metrics
	levels []core.LevelStats
}

// walOptions are amatchd's WAL options under the benchmark's flags.
func walOptions(dir string) wal.Options {
	return wal.Options{Dir: dir, Sync: wal.SyncAlways, CheckpointEvery: walCheckpointEvery}
}

// setup loads the graph file and opens a fresh WAL, as amatchd does on boot.
func (r *replayer) setup() error {
	id := r.tr.begin(0, 0, "request")
	defer r.tr.end(id)
	f, err := os.Open(r.b.gpath)
	if err != nil {
		return err
	}
	s := r.tr.begin(0, id, "graph.ReadEdgeList")
	g, err := graph.ReadEdgeList(bufio.NewReader(f))
	r.tr.end(s)
	f.Close()
	if err != nil {
		return err
	}
	s = r.tr.begin(0, id, "graph.RelabelByDegree")
	g = graph.RelabelByDegree(g)
	r.tr.end(s)
	r.seed, r.g = g, g
	r.shared = core.NewCacheBytes(g.NumVertices(), 0)
	if err := os.RemoveAll(r.walDir); err != nil {
		return err
	}
	s = r.tr.begin(0, id, "wal.Open")
	r.wlog, _, err = wal.Open(walOptions(r.walDir), g)
	r.tr.end(s)
	return err
}

// match replays one /match request; hit marks a request the server's result
// cache answers, which never reaches prototype generation or the pipeline.
func (r *replayer) match(rid int, q replayReq, hit bool) error {
	id := r.tr.begin(rid, 0, "request")
	defer r.tr.end(id)
	s := r.tr.begin(rid, id, "pattern.Parse")
	t, err := pattern.Parse(strings.NewReader(q.text))
	r.tr.end(s)
	if err != nil {
		return err
	}
	s = r.tr.begin(rid, id, "pattern.CanonicalForm")
	ct, _ := pattern.CanonicalForm(t)
	_ = pattern.CanonicalKey(ct)
	r.tr.end(s)
	if hit {
		return nil
	}
	s = r.tr.begin(rid, id, "prototype.Generate")
	_, err = prototype.Generate(ct, q.k)
	r.tr.end(s)
	if err != nil {
		return err
	}
	par, workers := serverShape()
	cfg := core.DefaultConfig(q.k)
	cfg.CountMatches = true
	cfg.SharedCache = r.shared
	cfg.Workers = workers
	s = r.tr.begin(rid, id, "core.RunParallelContext")
	res, err := core.RunParallelContext(context.Background(), r.g, ct, cfg, par)
	r.tr.end(s)
	if err != nil {
		return err
	}
	// The replay must compute what the timed server answered, which the
	// timed run checked against the same oracle count.
	if got := res.TotalMatchCount(); got != q.want {
		return fmt.Errorf("replayed %d matches at epoch %d, the oracle (and the timed run) %d", got, r.epoch, q.want)
	}
	if r.tr.on {
		at := r.tr.spans[s-1].StartNS
		r.tr.derive(rid, s, "core.candidate", &at, res.Metrics.CandidateTime)
		for _, lv := range res.Levels {
			r.tr.derive(rid, s, fmt.Sprintf("core.level_d%d", lv.Dist), &at, lv.Duration)
		}
		r.runs = append(r.runs, coreRun{m: res.Metrics, levels: res.Levels})
	}
	return nil
}

// ingest replays one /ingest batch: validate-and-build the next epoch, log
// it, and checkpoint on the server's cadence.
func (r *replayer) ingest(rid int, bt *ingestBatch) error {
	id := r.tr.begin(rid, 0, "request")
	defer r.tr.end(id)
	d := graph.TranslateDeltaToInternal(r.g, bt.delta())
	s := r.tr.begin(rid, id, "graph.ApplyDelta")
	ng, _, err := graph.ApplyDelta(r.g, d)
	r.tr.end(s)
	if err != nil {
		return err
	}
	s = r.tr.begin(rid, id, "wal.Log.Append")
	err = r.wlog.Append(r.epoch+1, d)
	r.tr.end(s)
	if err != nil {
		return err
	}
	r.g, r.epoch = ng, r.epoch+1
	// amatchd purges the shared NLCC store after every epoch swap: its
	// entries describe the previous epoch's graph.
	r.shared.Purge()
	if r.epoch%walCheckpointEvery == 0 {
		s = r.tr.begin(rid, id, "wal.Log.Checkpoint")
		err = r.wlog.Checkpoint(ng, r.epoch)
		r.tr.end(s)
	}
	return err
}

// recover reopens the WAL from the seed graph, as a restart after kill -9.
func (r *replayer) recover(rid int) error {
	id := r.tr.begin(rid, 0, "request")
	defer r.tr.end(id)
	if err := r.wlog.Close(); err != nil {
		return err
	}
	s := r.tr.begin(rid, id, "wal.Open")
	var err error
	r.wlog, r.rec, err = wal.Open(walOptions(r.walDir), r.seed)
	r.tr.end(s)
	if err != nil {
		return err
	}
	if r.rec.Epoch != r.epoch {
		return fmt.Errorf("replayed WAL recovered epoch %d, want %d", r.rec.Epoch, r.epoch)
	}
	return r.wlog.Close()
}

// do replays request i of the sequence.
func (r *replayer) do(i int, q replayReq, hot bool) error {
	if q.kind == "ingest" {
		return r.ingest(i+1, q.batch)
	}
	return r.match(i+1, q, hot)
}

// traceRun replays the workload's request sequence in-process on two fresh
// replayers in lockstep — one untraced, one traced, alternating which goes
// first — and derives the per-layer metrics from the traced one. The
// difference between their per-request wall times is the tracing overhead.
func (b *bench) traceRun(res *workloadResult, hot bool) (map[string]metric, error) {
	var passes [2]*replayer
	for p, on := range []bool{false, true} {
		passes[p] = &replayer{b: b, tr: &tracer{on: on, t0: time.Now()}, walDir: filepath.Join(b.dir, fmt.Sprintf("replay-wal-%d", p))}
		if err := passes[p].setup(); err != nil {
			return nil, err
		}
	}
	var walls [2]time.Duration
	reqs := res.replay
	n := 0
	for ; n < len(reqs); n++ {
		for j := 0; j < 2; j++ {
			p := (n + j) % 2
			t0 := time.Now()
			if err := passes[p].do(n, reqs[n], hot); err != nil {
				return nil, fmt.Errorf("replay request %d: %w", n, err)
			}
			walls[p] += time.Since(t0)
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("trace replay: no requests to replay")
	}
	reqs = reqs[:n]
	for p := range passes {
		if err := passes[p].recover(n + 1); err != nil {
			return nil, err
		}
	}
	tr := passes[1]
	out := layerMetrics(tr.tr.spans, tr.runs)
	out["trace.overhead_ms"] = metric{(walls[1].Seconds() - walls[0].Seconds()) * 1e3 / float64(len(reqs)), "ms"}
	out["trace.spans"] = metric{float64(len(tr.tr.spans)), "count"}
	out["core.calls_per_request"] = metric{float64(len(tr.runs)) / float64(len(reqs)), "count"}
	out["trace.replayed_requests"] = metric{float64(len(reqs)), "count"}
	out["wal.replayed_records"] = metric{float64(tr.rec.Replayed), "count"}

	// Request spans of /match replays, against the timed HTTP latencies.
	var reqMS []float64
	for _, s := range tr.tr.spans {
		if s.Name == "request" && s.Req > 0 && s.Req <= len(reqs) && reqs[s.Req-1].kind == "match" {
			reqMS = append(reqMS, s.ms())
		}
	}
	out["server.overhead_ms"] = metric{median(res.matchMS) - median(reqMS), "ms"}
	b.spans = tr.tr.spans
	return out, nil
}

// layerMetrics reduces the traced spans to per-layer figures: times are
// means per call (so a parent's mean is the sum of its parts' means plus its
// self time), counters are means per pipeline run.
func layerMetrics(spans []span, runs []coreRun) map[string]metric {
	byName := map[string][]float64{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s.ms())
	}
	out := map[string]metric{}
	ms := func(name, spanName string) { out[name] = metric{mean(byName[spanName]), "ms"} }
	ms("pattern.parse_ms", "pattern.Parse")
	ms("pattern.canonical_ms", "pattern.CanonicalForm")
	ms("prototype.generate_ms", "prototype.Generate")
	ms("graph.read_ms", "graph.ReadEdgeList")
	ms("graph.relabel_ms", "graph.RelabelByDegree")
	ms("graph.apply_delta_ms", "graph.ApplyDelta")
	ms("wal.append_ms", "wal.Log.Append")
	ms("wal.checkpoint_ms", "wal.Log.Checkpoint")
	// The last wal.Open is the recovery; the first is the boot's.
	if opens := byName["wal.Open"]; len(opens) > 0 {
		out["wal.replay_ms"] = metric{opens[len(opens)-1], "ms"}
	}

	n := float64(len(runs))
	var pipe, cand, lcc, nlcc, verify, unattr float64
	levels := make([]float64, poolK+1)
	var msgs [4]float64
	var enum, vexp, hits, tokens, compactions float64
	for _, s := range spans {
		if s.Name == "core.RunParallelContext" {
			pipe += s.ms()
		}
	}
	for _, res := range runs {
		m := &res.m
		cand += durMS(m.CandidateTime)
		lcc += durMS(m.LCCTime)
		nlcc += durMS(m.NLCCTime)
		verify += durMS(m.VerifyTime)
		for _, lv := range res.levels {
			if lv.Dist < len(levels) {
				levels[lv.Dist] += durMS(lv.Duration)
			}
		}
		msgs[0] += float64(m.CandidateMessages)
		msgs[1] += float64(m.LCCMessages)
		msgs[2] += float64(m.NLCCMessages)
		msgs[3] += float64(m.VerifyMessages)
		enum += float64(m.EnumExpansions)
		vexp += float64(m.VerifyExpansions)
		hits += float64(m.CacheHits)
		tokens += float64(m.TokensInitiated)
		compactions += float64(m.Compactions)
	}
	per := func(x float64) float64 {
		if n == 0 {
			return 0
		}
		return x / n
	}
	unattr = pipe - cand
	for _, l := range levels {
		unattr -= l
	}
	out["core.pipeline_ms"] = metric{per(pipe), "ms"}
	out["core.candidate_ms"] = metric{per(cand), "ms"}
	for d, l := range levels {
		out[fmt.Sprintf("core.level_d%d_ms", d)] = metric{per(l), "ms"}
	}
	out["core.unattributed_ms"] = metric{per(unattr), "ms"}
	out["core.lcc_sum_ms"] = metric{per(lcc), "ms"}
	out["core.nlcc_sum_ms"] = metric{per(nlcc), "ms"}
	out["core.verify_sum_ms"] = metric{per(verify), "ms"}
	for i, name := range []string{"candidate", "lcc", "nlcc", "verify"} {
		out["core."+name+"_msgs"] = metric{per(msgs[i]), "count"}
	}
	out["core.enum_expansions"] = metric{per(enum), "count"}
	out["core.verify_expansions"] = metric{per(vexp), "count"}
	ratio := 0.0
	if hits+tokens > 0 {
		ratio = hits / (hits + tokens)
	}
	out["core.shared_nlcc_hit_ratio"] = metric{ratio, "ratio"}
	out["core.compactions"] = metric{per(compactions), "count"}
	return out
}

func durMS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
