package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"approxmatch/internal/core"
	"approxmatch/internal/wal"
)

// Request outcomes recorded in the query counters. "ok" is a served result;
// the rest are the distinct ways a request can fail, so operators can tell
// client errors (bad_request, too_large), shed load (overload), deadline
// expiry (timeout), client disconnects (canceled) and template-level
// rejections (unprocessable) apart at a glance.
const (
	outcomeOK            = "ok"
	outcomeBadRequest    = "bad_request"
	outcomeTooLarge      = "too_large"
	outcomeUnprocessable = "unprocessable"
	outcomeOverload      = "overload"
	outcomeTimeout       = "timeout"
	outcomeCanceled      = "canceled"
	// outcomePartial is a served result whose budget ran out mid-pipeline:
	// completed levels are exact, the rest unknown (HTTP 200, Partial flag).
	outcomePartial = "partial"
	// outcomeBudget is a budget-exhausted query with nothing to salvage
	// (top-down exploration has no containment guarantee) — HTTP 504.
	outcomeBudget = "budget"
	// outcomePanic is a query whose pipeline panicked; the panic was
	// isolated to the query (HTTP 500) and the process survived.
	outcomePanic = "panic"
	// outcomeMemOverload is a query shed at admission because the heap was
	// above Config.MemHighWatermark (HTTP 503).
	outcomeMemOverload = "mem_overload"
	// outcomeCacheHit is a query served verbatim from the cross-query
	// result cache without running the pipeline.
	outcomeCacheHit = "cache_hit"
	// outcomeProxied is a query routed to the rank group by the
	// coordinator (any worker status); outcomeProxyError is a routed query
	// that failed because no worker was reachable (502).
	outcomeProxied    = "proxied"
	outcomeProxyError = "proxy_error"
	// outcomeCoalesced is a query that waited on an identical in-flight
	// leader (single flight) and served the leader's bytes.
	outcomeCoalesced = "coalesced"
	// outcomeDurability is an ingest batch that validated but could not be
	// durably appended to the write-ahead log (HTTP 500, nothing
	// published; the batch is NOT acknowledged and NOT applied).
	outcomeDurability = "durability"
)

// latencyBuckets are the histogram upper bounds in seconds (Prometheus
// `le` convention; +Inf is implicit as the final count).
var latencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

type outcomeKey struct {
	endpoint string
	outcome  string
}

// metricsRegistry aggregates serving metrics for the /metrics endpoint. It
// is deliberately dependency-free: counters, one latency histogram, and the
// pipeline's own core.Metrics accumulated across queries, rendered in the
// Prometheus text exposition format.
type metricsRegistry struct {
	start time.Time

	mu         sync.Mutex
	queries    map[outcomeKey]int64
	buckets    []int64 // len(latencyBuckets)+1; last is +Inf
	latencySum float64
	latencyN   int64
	pipeline   core.Metrics
	// Resource-governance counters: queries whose budget ran out, partial
	// results served, and pipeline panics isolated to their query.
	budgetExhausted int64
	partialResults  int64
	queryPanics     int64
	// Live-ingest counters: applied batches with their operation totals, and
	// batches rejected at any stage (oversized body, malformed rows, delta
	// validation).
	ingestBatches  int64
	ingestInserts  int64
	ingestDeletes  int64
	ingestRelabels int64
	ingestRejected int64
}

func newMetricsRegistry() *metricsRegistry {
	return &metricsRegistry{
		start:   time.Now(),
		queries: make(map[outcomeKey]int64),
		buckets: make([]int64, len(latencyBuckets)+1),
	}
}

// record counts one finished request. Latency is observed for every
// outcome; pipeline metrics only accompany successful runs.
func (r *metricsRegistry) record(endpoint, outcome string, elapsed time.Duration) {
	sec := elapsed.Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.queries[outcomeKey{endpoint, outcome}]++
	i := sort.SearchFloat64s(latencyBuckets, sec)
	r.buckets[i]++
	r.latencySum += sec
	r.latencyN++
}

// observePipeline folds one query's pipeline counters into the cumulative
// per-phase totals.
func (r *metricsRegistry) observePipeline(m *core.Metrics) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pipeline.Add(m)
}

// noteBudgetExhausted counts a query stopped by budget exhaustion; partial
// additionally counts it as a served partial result.
func (r *metricsRegistry) noteBudgetExhausted(partial bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.budgetExhausted++
	if partial {
		r.partialResults++
	}
}

// noteIngestApplied counts one successfully applied ingest batch.
func (r *metricsRegistry) noteIngestApplied(inserts, deletes, relabels int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ingestBatches++
	r.ingestInserts += int64(inserts)
	r.ingestDeletes += int64(deletes)
	r.ingestRelabels += int64(relabels)
}

// noteIngestRejected counts one rejected ingest batch (nothing applied).
func (r *metricsRegistry) noteIngestRejected() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ingestRejected++
}

// notePanic counts a pipeline panic isolated to its query.
func (r *metricsRegistry) notePanic() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.queryPanics++
}

// cacheGauges samples the cross-query cache state for /metrics. The caller
// (handleMetrics) reads it from the live caches; all-zero when both caches
// are disabled.
type cacheGauges struct {
	resultHits      int64
	resultMisses    int64
	resultEvictions int64
	resultBytes     int64
	resultEntries   int

	sharedHits      int64
	sharedMisses    int64
	sharedEvictions int64
	sharedBytes     int64
	sharedSets      int
}

// walGauges samples the write-ahead log's durability counters for
// /metrics; all-zero when the WAL is disabled.
type walGauges struct {
	appends         int64
	fsyncs          int64
	bytes           int64
	checkpoints     int64
	replayed        int64
	tornTails       int64
	recoverySeconds float64
}

// sampleWALGauges converts a wal.Stats snapshot to the rendering shape.
func sampleWALGauges(st wal.Stats) walGauges {
	return walGauges{
		appends:         st.Appends,
		fsyncs:          st.Fsyncs,
		bytes:           st.Bytes,
		checkpoints:     st.Checkpoints,
		replayed:        st.ReplayedRecords,
		tornTails:       st.TornTailTruncations,
		recoverySeconds: st.RecoverySeconds,
	}
}

// writeProm renders the registry in the Prometheus text format. inFlight,
// waiting, heapBytes, the cache gauges, the WAL gauges and the snapshot
// gauges (epoch, retired) are sampled by the caller (they live in the
// scheduler, the memory watcher, the cross-query caches, the write-ahead
// log and the snapshot store).
func (r *metricsRegistry) writeProm(w io.Writer, inFlight, waiting int, heapBytes uint64, cg cacheGauges, wg walGauges, epoch, retired, reclaimedBytes uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()

	fmt.Fprintf(w, "# HELP amatchd_queries_total Finished queries by endpoint and outcome.\n")
	fmt.Fprintf(w, "# TYPE amatchd_queries_total counter\n")
	keys := make([]outcomeKey, 0, len(r.queries))
	for k := range r.queries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].endpoint != keys[j].endpoint {
			return keys[i].endpoint < keys[j].endpoint
		}
		return keys[i].outcome < keys[j].outcome
	})
	for _, k := range keys {
		fmt.Fprintf(w, "amatchd_queries_total{endpoint=%q,outcome=%q} %d\n", k.endpoint, k.outcome, r.queries[k])
	}

	fmt.Fprintf(w, "# HELP amatchd_in_flight_queries Queries currently running the pipeline.\n")
	fmt.Fprintf(w, "# TYPE amatchd_in_flight_queries gauge\n")
	fmt.Fprintf(w, "amatchd_in_flight_queries %d\n", inFlight)
	fmt.Fprintf(w, "# HELP amatchd_queued_queries Admitted queries waiting for a pipeline slot.\n")
	fmt.Fprintf(w, "# TYPE amatchd_queued_queries gauge\n")
	fmt.Fprintf(w, "amatchd_queued_queries %d\n", waiting)

	fmt.Fprintf(w, "# HELP amatchd_query_duration_seconds Query wall time, all endpoints and outcomes.\n")
	fmt.Fprintf(w, "# TYPE amatchd_query_duration_seconds histogram\n")
	var cum int64
	for i, ub := range latencyBuckets {
		cum += r.buckets[i]
		fmt.Fprintf(w, "amatchd_query_duration_seconds_bucket{le=%q} %d\n", trimFloat(ub), cum)
	}
	cum += r.buckets[len(latencyBuckets)]
	fmt.Fprintf(w, "amatchd_query_duration_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "amatchd_query_duration_seconds_sum %g\n", r.latencySum)
	fmt.Fprintf(w, "amatchd_query_duration_seconds_count %d\n", r.latencyN)

	p := &r.pipeline
	fmt.Fprintf(w, "# HELP amatchd_pipeline_messages_total Logical pipeline messages by phase, summed over queries.\n")
	fmt.Fprintf(w, "# TYPE amatchd_pipeline_messages_total counter\n")
	fmt.Fprintf(w, "amatchd_pipeline_messages_total{phase=\"candidate\"} %d\n", p.CandidateMessages)
	fmt.Fprintf(w, "amatchd_pipeline_messages_total{phase=\"lcc\"} %d\n", p.LCCMessages)
	fmt.Fprintf(w, "amatchd_pipeline_messages_total{phase=\"nlcc\"} %d\n", p.NLCCMessages)
	fmt.Fprintf(w, "amatchd_pipeline_messages_total{phase=\"verify\"} %d\n", p.VerifyMessages)
	fmt.Fprintf(w, "# HELP amatchd_pipeline_phase_seconds_total Pipeline wall time by phase, summed over queries.\n")
	fmt.Fprintf(w, "# TYPE amatchd_pipeline_phase_seconds_total counter\n")
	fmt.Fprintf(w, "amatchd_pipeline_phase_seconds_total{phase=\"candidate\"} %g\n", p.CandidateTime.Seconds())
	fmt.Fprintf(w, "amatchd_pipeline_phase_seconds_total{phase=\"lcc\"} %g\n", p.LCCTime.Seconds())
	fmt.Fprintf(w, "amatchd_pipeline_phase_seconds_total{phase=\"nlcc\"} %g\n", p.NLCCTime.Seconds())
	fmt.Fprintf(w, "amatchd_pipeline_phase_seconds_total{phase=\"verify\"} %g\n", p.VerifyTime.Seconds())
	fmt.Fprintf(w, "# HELP amatchd_kernel_expansions_total Partial-embedding extensions performed by the search kernels, by phase.\n")
	fmt.Fprintf(w, "# TYPE amatchd_kernel_expansions_total counter\n")
	fmt.Fprintf(w, "amatchd_kernel_expansions_total{phase=\"verify\"} %d\n", p.VerifyExpansions)
	fmt.Fprintf(w, "amatchd_kernel_expansions_total{phase=\"enumerate\"} %d\n", p.EnumExpansions)
	fmt.Fprintf(w, "# HELP amatchd_guard_hits_total Subtree re-entries rejected O(1) by failure guards.\n")
	fmt.Fprintf(w, "# TYPE amatchd_guard_hits_total counter\n")
	fmt.Fprintf(w, "amatchd_guard_hits_total %d\n", p.GuardHits)
	fmt.Fprintf(w, "# HELP amatchd_guards_set_total Failure guards recorded by the verification kernels.\n")
	fmt.Fprintf(w, "# TYPE amatchd_guards_set_total counter\n")
	fmt.Fprintf(w, "amatchd_guards_set_total %d\n", p.GuardsSet)
	fmt.Fprintf(w, "# HELP amatchd_nlcc_tokens_initiated_total NLCC walk tokens initiated.\n")
	fmt.Fprintf(w, "# TYPE amatchd_nlcc_tokens_initiated_total counter\n")
	fmt.Fprintf(w, "amatchd_nlcc_tokens_initiated_total %d\n", p.TokensInitiated)
	fmt.Fprintf(w, "# HELP amatchd_nlcc_cache_hits_total NLCC walks skipped by the work-recycling cache; divide by (hits+tokens) for the cache-hit rate.\n")
	fmt.Fprintf(w, "# TYPE amatchd_nlcc_cache_hits_total counter\n")
	fmt.Fprintf(w, "amatchd_nlcc_cache_hits_total %d\n", p.CacheHits)
	fmt.Fprintf(w, "# HELP amatchd_nlcc_cache_evictions_total Work-recycling cache entries evicted to honor the byte cap.\n")
	fmt.Fprintf(w, "# TYPE amatchd_nlcc_cache_evictions_total counter\n")
	fmt.Fprintf(w, "amatchd_nlcc_cache_evictions_total %d\n", p.CacheEvictions)

	fmt.Fprintf(w, "# HELP amatchd_result_cache_hits_total /match queries served from the cross-query result cache (verbatim hits plus coalesced single-flight followers).\n")
	fmt.Fprintf(w, "# TYPE amatchd_result_cache_hits_total counter\n")
	fmt.Fprintf(w, "amatchd_result_cache_hits_total %d\n", cg.resultHits)
	fmt.Fprintf(w, "# HELP amatchd_result_cache_misses_total Cacheable /match queries that led a pipeline run.\n")
	fmt.Fprintf(w, "# TYPE amatchd_result_cache_misses_total counter\n")
	fmt.Fprintf(w, "amatchd_result_cache_misses_total %d\n", cg.resultMisses)
	fmt.Fprintf(w, "# HELP amatchd_result_cache_evictions_total Result bodies evicted to honor the byte cap.\n")
	fmt.Fprintf(w, "# TYPE amatchd_result_cache_evictions_total counter\n")
	fmt.Fprintf(w, "amatchd_result_cache_evictions_total %d\n", cg.resultEvictions)
	fmt.Fprintf(w, "# HELP amatchd_result_cache_bytes Resident bytes of cached result bodies.\n")
	fmt.Fprintf(w, "# TYPE amatchd_result_cache_bytes gauge\n")
	fmt.Fprintf(w, "amatchd_result_cache_bytes %d\n", cg.resultBytes)
	fmt.Fprintf(w, "# HELP amatchd_result_cache_entries Cached result bodies currently resident.\n")
	fmt.Fprintf(w, "# TYPE amatchd_result_cache_entries gauge\n")
	fmt.Fprintf(w, "amatchd_result_cache_entries %d\n", cg.resultEntries)

	fmt.Fprintf(w, "# HELP amatchd_shared_nlcc_hits_total Walk verdicts recycled from the shared cross-query NLCC store.\n")
	fmt.Fprintf(w, "# TYPE amatchd_shared_nlcc_hits_total counter\n")
	fmt.Fprintf(w, "amatchd_shared_nlcc_hits_total %d\n", cg.sharedHits)
	fmt.Fprintf(w, "# HELP amatchd_shared_nlcc_misses_total Shared NLCC store probes that found no recorded verdict.\n")
	fmt.Fprintf(w, "# TYPE amatchd_shared_nlcc_misses_total counter\n")
	fmt.Fprintf(w, "amatchd_shared_nlcc_misses_total %d\n", cg.sharedMisses)
	fmt.Fprintf(w, "# HELP amatchd_shared_nlcc_evictions_total Shared NLCC constraint sets evicted to honor the byte cap.\n")
	fmt.Fprintf(w, "# TYPE amatchd_shared_nlcc_evictions_total counter\n")
	fmt.Fprintf(w, "amatchd_shared_nlcc_evictions_total %d\n", cg.sharedEvictions)
	fmt.Fprintf(w, "# HELP amatchd_shared_nlcc_bytes Resident bytes of the shared NLCC store.\n")
	fmt.Fprintf(w, "# TYPE amatchd_shared_nlcc_bytes gauge\n")
	fmt.Fprintf(w, "amatchd_shared_nlcc_bytes %d\n", cg.sharedBytes)
	fmt.Fprintf(w, "# HELP amatchd_shared_nlcc_sets Constraint sets currently resident in the shared NLCC store.\n")
	fmt.Fprintf(w, "# TYPE amatchd_shared_nlcc_sets gauge\n")
	fmt.Fprintf(w, "amatchd_shared_nlcc_sets %d\n", cg.sharedSets)

	fmt.Fprintf(w, "# HELP amatchd_budget_exhausted_total Queries stopped by per-query budget exhaustion (work, bytes or wall).\n")
	fmt.Fprintf(w, "# TYPE amatchd_budget_exhausted_total counter\n")
	fmt.Fprintf(w, "amatchd_budget_exhausted_total %d\n", r.budgetExhausted)
	fmt.Fprintf(w, "# HELP amatchd_partial_results_total Budget-exhausted queries served as anytime partial results (completed levels exact).\n")
	fmt.Fprintf(w, "# TYPE amatchd_partial_results_total counter\n")
	fmt.Fprintf(w, "amatchd_partial_results_total %d\n", r.partialResults)
	fmt.Fprintf(w, "# HELP amatchd_query_panics_total Pipeline panics isolated to their query (500 returned, process survived).\n")
	fmt.Fprintf(w, "# TYPE amatchd_query_panics_total counter\n")
	fmt.Fprintf(w, "amatchd_query_panics_total %d\n", r.queryPanics)
	fmt.Fprintf(w, "# HELP amatchd_ingest_batches_total Successfully applied ingest batches (epoch swaps driven by /ingest).\n")
	fmt.Fprintf(w, "# TYPE amatchd_ingest_batches_total counter\n")
	fmt.Fprintf(w, "amatchd_ingest_batches_total %d\n", r.ingestBatches)
	fmt.Fprintf(w, "# HELP amatchd_ingest_operations_total Ingested mutations by kind, summed over applied batches.\n")
	fmt.Fprintf(w, "# TYPE amatchd_ingest_operations_total counter\n")
	fmt.Fprintf(w, "amatchd_ingest_operations_total{kind=\"insert\"} %d\n", r.ingestInserts)
	fmt.Fprintf(w, "amatchd_ingest_operations_total{kind=\"delete\"} %d\n", r.ingestDeletes)
	fmt.Fprintf(w, "amatchd_ingest_operations_total{kind=\"relabel\"} %d\n", r.ingestRelabels)
	fmt.Fprintf(w, "# HELP amatchd_ingest_rejected_total Ingest batches rejected with nothing applied (oversized, malformed or failing delta validation).\n")
	fmt.Fprintf(w, "# TYPE amatchd_ingest_rejected_total counter\n")
	fmt.Fprintf(w, "amatchd_ingest_rejected_total %d\n", r.ingestRejected)
	fmt.Fprintf(w, "# HELP amatchd_wal_appends_total Ingest batches durably appended to the write-ahead log.\n")
	fmt.Fprintf(w, "# TYPE amatchd_wal_appends_total counter\n")
	fmt.Fprintf(w, "amatchd_wal_appends_total %d\n", wg.appends)
	fmt.Fprintf(w, "# HELP amatchd_wal_fsyncs_total fsync calls issued by the write-ahead log (appends, interval syncs, rotations, checkpoints).\n")
	fmt.Fprintf(w, "# TYPE amatchd_wal_fsyncs_total counter\n")
	fmt.Fprintf(w, "amatchd_wal_fsyncs_total %d\n", wg.fsyncs)
	fmt.Fprintf(w, "# HELP amatchd_wal_bytes_total Bytes written to write-ahead log segments (records plus segment headers).\n")
	fmt.Fprintf(w, "# TYPE amatchd_wal_bytes_total counter\n")
	fmt.Fprintf(w, "amatchd_wal_bytes_total %d\n", wg.bytes)
	fmt.Fprintf(w, "# HELP amatchd_wal_checkpoints_total CSR checkpoints written to bound replay to the tail.\n")
	fmt.Fprintf(w, "# TYPE amatchd_wal_checkpoints_total counter\n")
	fmt.Fprintf(w, "amatchd_wal_checkpoints_total %d\n", wg.checkpoints)
	fmt.Fprintf(w, "# HELP amatchd_wal_replayed_records_total Log records replayed during startup recovery.\n")
	fmt.Fprintf(w, "# TYPE amatchd_wal_replayed_records_total counter\n")
	fmt.Fprintf(w, "amatchd_wal_replayed_records_total %d\n", wg.replayed)
	fmt.Fprintf(w, "# HELP amatchd_wal_recovery_seconds Wall time startup recovery took (checkpoint load plus tail replay).\n")
	fmt.Fprintf(w, "# TYPE amatchd_wal_recovery_seconds gauge\n")
	fmt.Fprintf(w, "amatchd_wal_recovery_seconds %g\n", wg.recoverySeconds)
	fmt.Fprintf(w, "# HELP amatchd_wal_torn_tail_truncations_total Torn log tails truncated during recovery (unacknowledged final records discarded).\n")
	fmt.Fprintf(w, "# TYPE amatchd_wal_torn_tail_truncations_total counter\n")
	fmt.Fprintf(w, "amatchd_wal_torn_tail_truncations_total %d\n", wg.tornTails)
	fmt.Fprintf(w, "# HELP amatchd_graph_epoch Current graph snapshot epoch (advances on every ingest or bump).\n")
	fmt.Fprintf(w, "# TYPE amatchd_graph_epoch gauge\n")
	fmt.Fprintf(w, "amatchd_graph_epoch %d\n", epoch)
	fmt.Fprintf(w, "# HELP amatchd_snapshots_retired_total Superseded graph snapshots whose last reader has finished.\n")
	fmt.Fprintf(w, "# TYPE amatchd_snapshots_retired_total counter\n")
	fmt.Fprintf(w, "amatchd_snapshots_retired_total %d\n", retired)
	fmt.Fprintf(w, "# HELP amatchd_snapshot_reclaimed_bytes_total CSR topology bytes made collectible by snapshot retirement (each distinct graph counted once, when its last epoch retires).\n")
	fmt.Fprintf(w, "# TYPE amatchd_snapshot_reclaimed_bytes_total counter\n")
	fmt.Fprintf(w, "amatchd_snapshot_reclaimed_bytes_total %d\n", reclaimedBytes)
	fmt.Fprintf(w, "# HELP amatchd_heap_bytes Live Go heap bytes, sampled from runtime/metrics (admission watermark input).\n")
	fmt.Fprintf(w, "# TYPE amatchd_heap_bytes gauge\n")
	fmt.Fprintf(w, "amatchd_heap_bytes %d\n", heapBytes)

	fmt.Fprintf(w, "# HELP amatchd_uptime_seconds Seconds since the server started.\n")
	fmt.Fprintf(w, "# TYPE amatchd_uptime_seconds gauge\n")
	fmt.Fprintf(w, "amatchd_uptime_seconds %g\n", time.Since(r.start).Seconds())
}

// trimFloat renders a bucket bound the way Prometheus clients expect
// (no trailing zeros, e.g. "0.005", "1", "30").
func trimFloat(f float64) string {
	return fmt.Sprintf("%g", f)
}
