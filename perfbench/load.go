package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
	"approxmatch/internal/server"
)

// Fixed workload parameters. They are part of the benchmark's definition:
// changing one changes what every figure means.
const (
	graphScale    = 16  // R-MAT scale: ~73k vertices, ~918k edges once planted
	bootRepeats   = 5   // amatchd starts per run; setup_s is their median
	ingestBatches = 100 // live-ingest batches: a p90 with 10 samples beyond it
	standingK     = 1
	// amatchd's WAL flush policy and checkpoint cadence: every acked batch
	// is fsynced, and 100 batches leave two checkpoints and a 20-record tail.
	walSync            = "always"
	walCheckpointEvery = 40
	// liveRestarts is how many kill -9 restarts live-ingest times;
	// recovery_cpu_s there is their median.
	liveRestarts = 5
	// oracleWorkers bounds the goroutines (and mirror graphs held) while
	// the live-ingest oracle is computed before timing.
	oracleWorkers = 2
)

// bench is one benchmark run: its inputs, the server under test and the
// tallies every workload reports into.
type bench struct {
	seed    int64
	seconds time.Duration
	conns   int
	bin     string
	dir     string // per-run scratch directory inside the checkout

	in     *inputs
	pool   []*poolKey
	gpath  string
	walDir string
	client *http.Client
	srv    *daemon

	attempted, failed int
	failures          []string
	setupS, recoverS  []float64 // wall, exec to first /healthz 200
	setupCPU          []float64 // amatchd CPU time over the same interval
	recoverCPU        []float64
	peakRSS           float64
	named             map[string]metric // every figure by name, for the report line
	props             map[string]any    // workload-property measurements
	spans             []span            // the traced replay's spans
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fail records one failed operation or check (the run is then incorrect).
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.failures) < 20 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

func (b *bench) daemonArgs() []string {
	return []string{"-graph", b.gpath, "-ingest", "-wal-dir", b.walDir,
		"-wal-sync", walSync, "-wal-checkpoint-every", fmt.Sprint(walCheckpointEvery)}
}

// boot starts amatchd bootRepeats times on a fresh WAL directory, keeping
// the last process; each start is timed from exec to the first /healthz 200.
func (b *bench) boot() error {
	for i := 0; i < bootRepeats; i++ {
		if err := os.RemoveAll(b.walDir); err != nil {
			return err
		}
		d, took, err := startDaemon(b.bin, filepath.Join(b.dir, "amatchd.log"), b.daemonArgs())
		if err != nil {
			return err
		}
		b.setupS = append(b.setupS, took.Seconds())
		cpu, err := d.cpuSeconds()
		if err != nil {
			return err
		}
		b.setupCPU = append(b.setupCPU, cpu)
		if i < bootRepeats-1 {
			d.kill()
		} else {
			b.srv = d
		}
	}
	return nil
}

// crashRestart records the serving process's peak RSS, then kill -9s it
// and restarts on the same WAL directory n times, timing each recovery to
// the first /healthz 200 and checking with verify that the restarted server
// answers as before.
func (b *bench) crashRestart(n int, wantEpoch uint64, verify func(i int) error) error {
	rss, err := b.srv.peakRSSMB()
	if err != nil {
		return err
	}
	b.peakRSS = rss
	for i := 0; i < n; i++ {
		b.srv.kill()
		d, took, err := startDaemon(b.bin, filepath.Join(b.dir, "amatchd.log"), b.daemonArgs())
		if err != nil {
			return err
		}
		b.srv = d
		b.recoverS = append(b.recoverS, took.Seconds())
		cpu, err := d.cpuSeconds()
		if err != nil {
			return err
		}
		b.recoverCPU = append(b.recoverCPU, cpu)
		var st server.StatsResponse
		b.attempted++
		if err := b.getJSON("/stats", &st); err != nil {
			b.fail("restart %d: /stats: %v", i, err)
		} else if st.Epoch != wantEpoch {
			b.fail("restart %d: epoch %d, want the acked %d", i, st.Epoch, wantEpoch)
		}
		if err := verify(i); err != nil {
			b.fail("restart %d: %v", i, err)
		}
	}
	return nil
}

func (b *bench) getJSON(path string, v any) error {
	status, body, err := get(b.client, b.srv.base+path)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, status)
	}
	return json.Unmarshal(body, v)
}

func (b *bench) scrape() (promSample, error) { return b.srv.scrape(b.client) }

// cpuPerOp is the server CPU time between two cpuSeconds readings around a
// window, per operation.
func cpuPerOp(cpu0, cpu1 float64, ops int) metric {
	return metric{(cpu1 - cpu0) * 1e3 / float64(max(ops, 1)), "ms"}
}

// phase records how long a part of the run took since *t and resets *t.
func (b *bench) phase(name string, t *time.Time) {
	ph, _ := b.props["phase_s"].(map[string]float64)
	if ph == nil {
		ph = map[string]float64{}
		b.props["phase_s"] = ph
	}
	ph[name] = time.Since(*t).Seconds()
	*t = time.Now()
}

func matchBody(text string, k int, vectors bool) []byte {
	body, err := json.Marshal(server.MatchRequest{Template: text, K: k, Count: true, Vectors: vectors})
	if err != nil {
		panic(err) // a struct of strings, ints and bools always marshals
	}
	return body
}

// sample is one timed request.
type sample struct {
	idx    int // position in the workload's request stream
	ms     float64
	status int
	body   []byte
}

// closedLoop runs b.conns clients, each sending its next request as soon as
// the previous one answers, until the stream ends or the window has passed
// with at least minSent requests sent. send performs request i. Samples
// come back in stream order.
func (b *bench) closedLoop(n, minSent int, send func(i int) (int, []byte, error)) ([]sample, time.Duration) {
	var next atomic.Int64
	out := make([][]sample, b.conns)
	start := time.Now()
	deadline := start.Add(b.seconds)
	var wg sync.WaitGroup
	for c := 0; c < b.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || (i >= minSent && !time.Now().Before(deadline)) {
					return
				}
				t0 := time.Now()
				status, body, err := send(i)
				ms := float64(time.Since(t0).Nanoseconds()) / 1e6
				if err != nil {
					status = 0
					body = []byte(err.Error())
				}
				out[c] = append(out[c], sample{idx: i, ms: ms, status: status, body: body})
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []sample
	for _, s := range out {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].idx < all[j].idx })
	return all, elapsed
}

func latencies(s []sample) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = x.ms
	}
	return out
}

// latencyFigures records prefix_p50_ms and prefix_p90_ms.
func (b *bench) latencyFigures(prefix string, ms []float64) error {
	for _, p := range []float64{50, 90} {
		v, err := percentile(ms, p)
		if err != nil {
			return fmt.Errorf("%s: %w", prefix, err)
		}
		b.named[fmt.Sprintf("%s_p%v_ms", prefix, p)] = metric{v, "ms"}
	}
	b.named[prefix+"_samples"] = metric{float64(len(ms)), "count"}
	return nil
}

// workloadResult is what a workload hands back for the trace replay.
type workloadResult struct {
	matchMS       []float64 // timed /match latencies
	replay        []replayReq
	before, after promSample // /metrics around the timed window
}

// replayReq is one request of the workload's timed sequence, replayed
// in-process by the traced run.
type replayReq struct {
	kind  string // "match" or "ingest"
	text  string
	k     int
	want  int64 // the oracle's total match count, checked whenever the replay runs the pipeline
	batch *ingestBatch
}

// coldBulk sends every pool key exactly once, in a seeded shuffle, so every
// query misses the result cache and the pipeline does the work. The window
// is the whole pass, whatever -seconds says: every run then carries the
// same mix of keys.
func (b *bench) coldBulk() (*workloadResult, error) {
	t := time.Now()
	orc := newOracle(b.in.g)
	want := make([]*server.MatchResponse, len(b.pool))
	for i, pk := range b.pool {
		w, err := orc.expected(pk.tpl, pk.K, pk.Vectors)
		if err != nil {
			return nil, err
		}
		if matches(w) < 1 {
			return nil, fmt.Errorf("vacuous pool key %s k=%d: the oracle finds no match", pk.Base, pk.K)
		}
		want[i] = w
	}
	b.props["pool_keys"] = len(b.pool)
	b.props["pool_match_totals"] = poolTotals(b.pool, want)
	b.phase("oracle", &t)
	if err := b.boot(); err != nil {
		return nil, err
	}
	b.phase("boot", &t)
	stream := coldStream(b.seed, b.pool)
	before, err := b.scrape()
	if err != nil {
		return nil, err
	}
	cpu0, err := b.srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	samples, elapsed := b.closedLoop(len(stream), len(stream), func(i int) (int, []byte, error) {
		pk := b.pool[stream[i]]
		return post(b.client, b.srv.base+"/match", matchBody(pk.text, pk.K, pk.Vectors))
	})
	cpu1, err := b.srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	after, err := b.scrape()
	if err != nil {
		return nil, err
	}
	res := &workloadResult{matchMS: latencies(samples), before: before, after: after}
	correct := 0
	for _, s := range samples {
		b.attempted++
		pk := b.pool[stream[s.idx]]
		res.replay = append(res.replay, replayReq{kind: "match", text: pk.text, k: pk.K, want: matches(want[stream[s.idx]])})
		if s.status != http.StatusOK {
			b.fail("cold %s k=%d: status %d: %.200s", pk.Base, pk.K, s.status, s.body)
		} else if err := checkMatch(s.body, want[stream[s.idx]]); err != nil {
			b.fail("cold %s k=%d: %v", pk.Base, pk.K, err)
		} else {
			correct++
		}
	}
	hits := delta(before, after, "amatchd_result_cache_hits_total")
	b.props["cold_result_cache_hits"] = hits
	b.props["cold_keys_sent"] = len(samples)
	if hits != 0 {
		b.fail("cold-bulk: %v result-cache hits, want 0", hits)
	}
	if err := b.latencyFigures("match", res.matchMS); err != nil {
		return nil, err
	}
	b.named["match_qps"] = metric{float64(correct) / elapsed.Seconds(), "1/s"}
	b.named["op_p50_ms"], b.named["op_p90_ms"] = b.named["match_p50_ms"], b.named["match_p90_ms"]
	b.named["ops_per_s"] = b.named["match_qps"]
	b.named["cpu_ms_per_op"] = cpuPerOp(cpu0, cpu1, correct)
	b.phase("window", &t)
	defer b.phase("restarts", &t)

	// After kill -9 the restarted server must answer a key sent in the
	// window exactly as before the crash. Nothing was ingested, so one
	// restart suffices: it is the same seed-graph load as a boot.
	err = b.crashRestart(1, 0, func(i int) error {
		s := samples[i]
		pk := b.pool[stream[s.idx]]
		b.attempted++
		status, body, err := post(b.client, b.srv.base+"/match", matchBody(pk.text, pk.K, pk.Vectors))
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("/match after restart: status %d, %v", status, err)
		}
		if !sameMatch(body, s.body) {
			return fmt.Errorf("/match body after restart differs from before for %s k=%d", pk.Base, pk.K)
		}
		return nil
	})
	return res, err
}

func poolTotals(pool []*poolKey, want []*server.MatchResponse) map[string]int64 {
	out := map[string]int64{}
	for i, pk := range pool {
		out[fmt.Sprintf("%s/p%d/k%d", pk.Base, pk.Proto, pk.K)] = matches(want[i])
	}
	return out
}

// sameMatch compares two /match bodies ignoring elapsed_ms.
func sameMatch(a, b []byte) bool {
	ra, err1 := decodeMatch(a)
	rb, err2 := decodeMatch(b)
	return err1 == nil && err2 == nil && reflect.DeepEqual(ra, rb)
}

// hotRepeat fills the result cache with a working set of pool keys, then
// sends random isomorphic relabellings of them: every timed request is a
// cache hit and the serving front does all the work.
func (b *bench) hotRepeat() (*workloadResult, error) {
	t := time.Now()
	keys, variants, order := hotStream(b.seed, b.pool, 1<<20)
	orc := newOracle(b.in.g)
	if err := b.boot(); err != nil {
		return nil, err
	}
	b.phase("boot", &t)
	first := map[int][]byte{}
	working := 0
	for _, ki := range keys {
		pk := b.pool[ki]
		w, err := orc.expected(pk.tpl, pk.K, pk.Vectors)
		if err != nil {
			return nil, err
		}
		b.attempted++
		status, body, err := post(b.client, b.srv.base+"/match", matchBody(pk.text, pk.K, pk.Vectors))
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("cache fill %s k=%d: status %d, %v", pk.Base, pk.K, status, err)
		}
		if err := checkMatch(body, w); err != nil {
			b.fail("hot fill %s k=%d: %v", pk.Base, pk.K, err)
		}
		first[ki] = body
		working += len(body)
	}
	b.props["hot_keys"] = len(keys)
	b.props["hot_variants"] = len(variants)
	b.props["hot_working_set_body_bytes"] = working
	b.props["result_cache_cap_bytes"] = 64 << 20
	b.phase("fill", &t)

	before, err := b.scrape()
	if err != nil {
		return nil, err
	}
	cpu0, err := b.srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	samples, elapsed := b.closedLoop(len(order), 0, func(i int) (int, []byte, error) {
		v := variants[order[i]]
		status, body, err := post(b.client, b.srv.base+"/match", v.body)
		if err == nil && status == http.StatusOK && !bytes.Equal(body, first[v.key]) {
			return -1, body, nil // a mismatch, reported below
		}
		return status, nil, err // bodies equal to first[key] need not be kept
	})
	cpu1, err := b.srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	after, err := b.scrape()
	if err != nil {
		return nil, err
	}
	res := &workloadResult{matchMS: latencies(samples), before: before, after: after}
	ok := 0
	for _, s := range samples {
		b.attempted++
		v := variants[order[s.idx]]
		res.replay = append(res.replay, replayReq{kind: "match", text: v.text, k: b.pool[v.key].K})
		switch s.status {
		case http.StatusOK:
			ok++
		case -1:
			b.fail("hot %s: body differs from the key's first body", b.pool[v.key].Base)
		default:
			b.fail("hot %s: status %d: %.200s", b.pool[v.key].Base, s.status, s.body)
		}
	}
	hits := delta(before, after, "amatchd_result_cache_hits_total")
	misses := delta(before, after, "amatchd_result_cache_misses_total")
	share := 0.0
	if hits+misses > 0 {
		share = hits / (hits + misses)
	}
	b.props["hot_hit_share"] = share
	b.props["hot_result_cache_bytes"] = after["amatchd_result_cache_bytes"]
	if share != 1 || int(hits) != len(samples) {
		b.fail("hot-repeat: hit share %v over %v requests (%d sent), want 1.0 on every request", share, hits+misses, len(samples))
	}
	if err := b.latencyFigures("match", res.matchMS); err != nil {
		return nil, err
	}
	b.named["match_qps"] = metric{float64(ok) / elapsed.Seconds(), "1/s"}
	b.named["op_p50_ms"], b.named["op_p90_ms"] = b.named["match_p50_ms"], b.named["match_p90_ms"]
	b.named["ops_per_s"] = b.named["match_qps"]
	b.named["cpu_ms_per_op"] = cpuPerOp(cpu0, cpu1, ok)
	b.phase("window", &t)
	defer b.phase("restarts", &t)

	err = b.crashRestart(1, 0, func(i int) error {
		v := variants[i*hotVariants] // relabellings of key keys[i]
		b.attempted++
		status, body, err := post(b.client, b.srv.base+"/match", v.body)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("/match after restart: status %d, %v", status, err)
		}
		if !sameMatch(body, first[v.key]) {
			return fmt.Errorf("/match body after restart differs from before for %s", b.pool[v.key].Base)
		}
		return nil
	})
	return res, err
}

// standing returns the live-ingest standing queries in canonical form:
// RMAT-1 at k=standingK with vectors. One query keeps 100 refreshes inside
// a run; each costs a full cache-miss pipeline run.
func (b *bench) standing() []*poolKey {
	var out []*poolKey
	for _, bs := range b.in.bases {
		if bs.name != "rmat1" {
			continue
		}
		ct, _ := pattern.CanonicalForm(bs.t)
		out = append(out, &poolKey{Base: bs.name, K: standingK, Vectors: bs.name == "rmat1", tpl: ct, text: templateText(ct)})
	}
	return out
}

// liveIngest posts ingestBatches mutation batches; after each it re-runs the
// standing queries, each a cache miss at the new epoch. Then it kill -9s the
// server and times recovery from the WAL.
func (b *bench) liveIngest() (*workloadResult, error) {
	t := time.Now()
	stand := b.standing()
	type epochTruth struct {
		edges int
		want  []*server.MatchResponse
	}
	truths := make([]epochTruth, ingestBatches)
	var batches [][]byte
	var bts []*ingestBatch
	res := &workloadResult{}
	// The oracle for each epoch's mirror runs on oracleWorkers goroutines
	// while the next batches are generated.
	type job struct {
		i      int
		mirror *graph.Graph
	}
	jobs := make(chan job, oracleWorkers)
	errs := make(chan error, oracleWorkers)
	for w := 0; w < oracleWorkers; w++ {
		go func() {
			var first error
			for j := range jobs {
				orc := newOracle(j.mirror)
				et := epochTruth{edges: j.mirror.NumEdges()}
				for _, sq := range stand {
					w, err := orc.expected(sq.tpl, sq.K, sq.Vectors)
					if err != nil && first == nil {
						first = err
					}
					et.want = append(et.want, w)
				}
				truths[j.i] = et
			}
			errs <- first
		}()
	}
	err := genBatches(b.seed, b.in, ingestBatches, func(i int, bt *ingestBatch, mirror *graph.Graph) error {
		body, err := json.Marshal(bt)
		if err != nil {
			return err
		}
		batches, bts = append(batches, body), append(bts, bt)
		jobs <- job{i, mirror}
		return nil
	})
	close(jobs)
	for w := 0; w < oracleWorkers; w++ {
		if werr := <-errs; werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		return nil, err
	}
	for i, bt := range bts {
		res.replay = append(res.replay, replayReq{kind: "ingest", batch: bt})
		for j, sq := range stand {
			res.replay = append(res.replay, replayReq{kind: "match", text: sq.text, k: sq.K, want: matches(truths[i].want[j])})
		}
	}
	b.phase("batches_and_oracle", &t)
	if err := b.boot(); err != nil {
		return nil, err
	}
	b.phase("boot", &t)
	before, err := b.scrape()
	if err != nil {
		return nil, err
	}
	cpu0, err := b.srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	var ingestMS, refreshMS []float64
	last := make([][]byte, len(stand))
	start := time.Now()
	acked := 0
	for i, body := range batches {
		t0 := time.Now()
		b.attempted++
		status, out, err := post(b.client, b.srv.base+"/ingest", body)
		ingestMS = append(ingestMS, float64(time.Since(t0).Nanoseconds())/1e6)
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("ingest batch %d: status %d, %v: %.200s", i, status, err, out)
		}
		acked++
		var ir server.IngestResponse
		if err := json.Unmarshal(out, &ir); err != nil {
			return nil, fmt.Errorf("ingest batch %d: %w", i, err)
		}
		if ir.Epoch != uint64(i+1) || ir.Edges != truths[i].edges {
			b.fail("ingest batch %d: epoch %d edges %d, mirror has epoch %d edges %d", i, ir.Epoch, ir.Edges, i+1, truths[i].edges)
		}
		for j, sq := range stand {
			t1 := time.Now()
			b.attempted++
			status, out, err := post(b.client, b.srv.base+"/match", matchBody(sq.text, sq.K, sq.Vectors))
			res.matchMS = append(res.matchMS, float64(time.Since(t1).Nanoseconds())/1e6)
			if err != nil || status != http.StatusOK {
				b.fail("standing %s after batch %d: status %d, %v", sq.Base, i, status, err)
				continue
			}
			if err := checkMatch(out, truths[i].want[j]); err != nil {
				b.fail("standing %s after batch %d: %v", sq.Base, i, err)
			}
			last[j] = out
		}
		refreshMS = append(refreshMS, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	elapsed := time.Since(start)
	cpu1, err := b.srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	after, err := b.scrape()
	if err != nil {
		return nil, err
	}
	res.before, res.after = before, after
	var st server.StatsResponse
	b.attempted++
	if err := b.getJSON("/stats", &st); err != nil {
		b.fail("/stats: %v", err)
	} else if st.Epoch != uint64(acked) || st.Edges != truths[len(truths)-1].edges {
		b.fail("/stats epoch %d edges %d, mirror has %d / %d", st.Epoch, st.Edges, acked, truths[len(truths)-1].edges)
	}
	appends := delta(before, after, "amatchd_wal_appends_total")
	fsyncs := delta(before, after, "amatchd_wal_fsyncs_total")
	ckpts := delta(before, after, "amatchd_wal_checkpoints_total")
	b.props["wal_appends"], b.props["wal_fsyncs"], b.props["wal_checkpoints"] = appends, fsyncs, ckpts
	b.props["acked_batches"] = acked
	// Under -wal-sync always every append is fsynced, and so is the active
	// segment before each checkpoint.
	if int(appends) != acked || int(fsyncs) != acked+int(ckpts) {
		b.fail("live-ingest: %v WAL appends and %v fsyncs for %d acked batches and %v checkpoints", appends, fsyncs, acked, ckpts)
	}
	if ckpts < 2 {
		b.fail("live-ingest: %v WAL checkpoints, want at least 2", ckpts)
	}
	b.props["wal_tail_records"] = acked % walCheckpointEvery

	if err := b.latencyFigures("ingest", ingestMS); err != nil {
		return nil, err
	}
	if err := b.latencyFigures("refresh", refreshMS); err != nil {
		return nil, err
	}
	if err := b.latencyFigures("match", res.matchMS); err != nil {
		return nil, err
	}
	b.named["match_qps"] = metric{float64(len(res.matchMS)) / elapsed.Seconds(), "1/s"}
	b.named["op_p50_ms"], b.named["op_p90_ms"] = b.named["refresh_p50_ms"], b.named["refresh_p90_ms"]
	b.named["ops_per_s"] = metric{float64(acked) / elapsed.Seconds(), "1/s"}
	b.named["cpu_ms_per_op"] = cpuPerOp(cpu0, cpu1, acked)
	b.phase("window", &t)
	defer b.phase("restarts", &t)

	err = b.crashRestart(liveRestarts, uint64(acked), func(int) error {
		for j, sq := range stand {
			b.attempted++
			status, body, err := post(b.client, b.srv.base+"/match", matchBody(sq.text, sq.K, sq.Vectors))
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("/match after restart: status %d, %v", status, err)
			}
			if !sameMatch(body, last[j]) {
				return fmt.Errorf("standing %s after restart differs from before the crash", sq.Base)
			}
		}
		m, err := b.scrape()
		if err != nil {
			return err
		}
		b.props["wal_replayed_records"] = m["amatchd_wal_replayed_records_total"]
		return nil
	})
	return res, err
}
