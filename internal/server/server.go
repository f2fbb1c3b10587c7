// Package server exposes the approximate-matching pipeline as an HTTP
// service for the bulk-labeling scenario (S4): a long-lived process loads
// the background graph once and answers template queries over a small JSON
// API — the "high-throughput matching pipeline" deployment shape the paper
// motivates for ML feature extraction.
//
//	POST /match    {"template": "...", "k": 2, "count": true}
//	POST /explore  {"template": "...", "k": 4}
//	GET  /stats
//	GET  /metrics
//	GET  /healthz
//
// Templates use the pattern text format ("v <i> <label>" / "e <i> <j>
// [label=<L>] [mandatory]"). Responses carry per-prototype summaries and,
// when requested, per-vertex match vectors.
//
// Queries run concurrently under a bounded scheduler: up to
// Config.MaxConcurrent pipeline runs in flight (each internally parallel
// via core.RunParallelContext), a small admission queue, and immediate
// 503 + Retry-After beyond that. Every query carries the request context —
// optionally bounded by Config.QueryTimeout — so client disconnects and
// deadlines stop pipeline work instead of letting it run to completion.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"

	"approxmatch/internal/core"
	"approxmatch/internal/dist"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
	"approxmatch/internal/wal"
)

// Config tunes the serving layer. The zero value picks GOMAXPROCS-aware
// defaults, so NewWithConfig(g, Config{}) behaves like New(g).
type Config struct {
	// MaxConcurrent bounds in-flight pipeline runs (default:
	// max(1, GOMAXPROCS/2) — each run is itself parallel).
	MaxConcurrent int
	// QueueDepth bounds admitted queries waiting for a slot (default:
	// 2×MaxConcurrent). Beyond in-flight+queued, requests get 503.
	QueueDepth int
	// Parallelism is the per-query core.RunParallelContext width
	// (default: max(2, GOMAXPROCS/MaxConcurrent)).
	Parallelism int
	// Workers is the per-query worker count for the constraint-checking
	// kernels (core.Config.Workers). 0 picks a scheduler-aware default —
	// GOMAXPROCS/MaxConcurrent, so slots × workers never exceeds
	// GOMAXPROCS, falling back to the sequential kernels when that quota
	// is a single core. Negative forces the sequential kernels.
	Workers int
	// QueryTimeout bounds each query's pipeline time; 0 disables (the
	// request context still cancels on client disconnect).
	QueryTimeout time.Duration
	// MaxBodyBytes caps the request body (default 1 MiB; larger bodies
	// get 413).
	MaxBodyBytes int64
	// MaxWork and MaxBytes bound each query's pipeline work units and
	// auxiliary allocation (core.Budget); 0 = unlimited. A query that
	// exhausts either returns a Partial result on /match (HTTP 200 with
	// the partial flag; completed levels exact) and 504 on /explore.
	MaxWork  int64
	MaxBytes int64
	// CacheBytes caps each query's NLCC work-recycling cache; beyond it,
	// least-recently-used constraint sets are evicted (recomputation cost
	// only, never correctness). 0 = unbounded. With SharedNLCC set it caps
	// the one shared store instead.
	CacheBytes int64
	// ResultCacheBytes enables the cross-query result cache: completed
	// /match responses are cached under the template's canonical key (byte
	// capped, LRU) and served verbatim to isomorphic queries; concurrent
	// identical queries are coalesced into one pipeline run (single
	// flight). 0 disables. Partial results are never cached.
	ResultCacheBytes int64
	// SharedNLCC promotes the per-query NLCC work-recycling cache to one
	// store shared by every query on this graph epoch, so constraint walks
	// recycle across queries (Obs. 2 across the query boundary). Cache
	// content never affects results — exact verification restores
	// precision — so sharing is correctness-neutral by construction.
	SharedNLCC bool
	// PartialGrace is the slow-query watchdog window. With QueryTimeout
	// set, a query crossing QueryTimeout is first downgraded to
	// partial-result mode (wall budget exhaustion → anytime partial
	// result) and only killed outright — context deadline — once the
	// grace has passed too. 0 picks QueryTimeout/4, at least 1s; negative
	// disables the downgrade (hard kill at QueryTimeout).
	PartialGrace time.Duration
	// MemHighWatermark sheds new queries with 503 while the live Go heap
	// (runtime/metrics) exceeds this many bytes; 0 disables. In-flight
	// queries are unaffected — their budgets bound them.
	MemHighWatermark uint64
	// EnableIngest registers POST /ingest: live mutation batches (edge
	// inserts/deletes, vertex relabels) applied as epoch-swapped snapshots
	// while in-flight queries keep reading their epoch. Off by default —
	// an unauthenticated graph-mutation endpoint is a data-integrity and
	// cache-flush DoS lever, so deployments must opt in (amatchd -ingest).
	EnableIngest bool
	// IngestMaxBodyBytes caps the /ingest request body (default 16 MiB;
	// larger batches get 413). Ingest batches are legitimately much larger
	// than queries, so they do not share MaxBodyBytes.
	IngestMaxBodyBytes int64
	// Logger receives one structured line per finished request (default:
	// discard).
	Logger *slog.Logger
	// Coordinator, when non-nil, routes /match and /explore queries to a
	// group of amatchrank worker processes (see internal/dist.DialGroup)
	// instead of the in-process engine; the response bytes are relayed
	// verbatim. All other endpoints stay local, and a nil Coordinator is
	// the in-process fallback. The server does not take ownership — the
	// caller closes the coordinator on shutdown.
	Coordinator *dist.Coordinator
	// WAL, when non-nil, makes ingest durable: every accepted batch is
	// appended to the write-ahead delta log — and fsynced, per the log's
	// sync policy — before its epoch is published, so an acknowledged
	// /ingest response implies the batch survives a crash (the
	// write-ahead contract; see internal/wal). The server does not take
	// ownership: the caller closes the log on shutdown.
	WAL *wal.Log
	// StartEpoch is the snapshot store's starting epoch. Non-zero only on
	// the WAL recovery path, where the store must resume at the epoch the
	// recovered graph corresponds to so the log's epoch chain, the
	// epoch-keyed caches and replaying clients all agree.
	StartEpoch uint64
}

// partialGrace resolves the watchdog window (see Config.PartialGrace);
// 0 means the downgrade is disabled.
func (c Config) partialGrace() time.Duration {
	if c.QueryTimeout <= 0 || c.PartialGrace < 0 {
		return 0
	}
	if c.PartialGrace > 0 {
		return c.PartialGrace
	}
	g := c.QueryTimeout / 4
	if g < time.Second {
		g = time.Second
	}
	return g
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent < 1 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0) / 2
		if c.MaxConcurrent < 1 {
			c.MaxConcurrent = 1
		}
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 2 * c.MaxConcurrent
	}
	if c.QueueDepth < 0 { // explicit "no queue"
		c.QueueDepth = 0
	}
	if c.Parallelism < 1 {
		c.Parallelism = runtime.GOMAXPROCS(0) / c.MaxConcurrent
		if c.Parallelism < 2 {
			c.Parallelism = 2
		}
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0) / c.MaxConcurrent
		if c.Workers <= 1 {
			// One core per slot: the superstep schedule would only add
			// barrier overhead, so keep the sequential reference kernels.
			c.Workers = -1
		}
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.IngestMaxBodyBytes <= 0 {
		c.IngestMaxBodyBytes = 16 << 20
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Server answers matching queries over one background graph under a bounded
// concurrent scheduler (see Config).
type Server struct {
	// snaps holds the epoch-swapped graph snapshots: every query pins the
	// current snapshot for its whole run, so /ingest can swap in the next
	// epoch underneath without disturbing in-flight work. The snapshot's
	// epoch participates in every result cache key, so a swap atomically
	// versions out all cached results even if a stale leader later
	// completes an old-epoch flight.
	snaps *graph.SnapshotStore
	// MaxEditDistance bounds accepted k values (default 6).
	MaxEditDistance int

	cfg     Config
	sched   *scheduler
	metrics *metricsRegistry
	mem     *memWatcher
	log     *slog.Logger
	stats   atomic.Pointer[StatsResponse]
	qid     atomic.Uint64

	// rcache/flights implement the cross-query result cache (nil when
	// Config.ResultCacheBytes is 0); nlccShared is the cross-query NLCC
	// store (nil unless Config.SharedNLCC).
	rcache     *resultCache
	flights    *flightGroup
	nlccShared *core.Cache
}

// New wraps a background graph with default scheduling (see Config).
func New(g *graph.Graph) *Server { return NewWithConfig(g, Config{}) }

// NewWithConfig wraps a background graph. Graph statistics are computed once
// here so /stats is an O(1) health probe, not an O(V+E) walk per GET.
func NewWithConfig(g *graph.Graph, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		snaps:           graph.NewSnapshotStoreAt(g, cfg.StartEpoch),
		MaxEditDistance: 6,
		cfg:             cfg,
		sched:           newScheduler(cfg.MaxConcurrent, cfg.QueueDepth),
		metrics:         newMetricsRegistry(),
		mem:             newMemWatcher(cfg.MemHighWatermark),
		log:             cfg.Logger,
	}
	s.stats.Store(s.computeStats(g, cfg.StartEpoch))
	if cfg.ResultCacheBytes > 0 {
		s.rcache = newResultCache(cfg.ResultCacheBytes)
		s.flights = newFlightGroup()
	}
	if cfg.SharedNLCC {
		// The vertex set is fixed across epochs (deltas change edges and
		// labels only), so one store sized at construction stays valid for
		// the server's lifetime; ingest purges it instead of replacing it.
		s.nlccShared = core.NewCacheBytes(g.NumVertices(), cfg.CacheBytes)
	}
	return s
}

// computeStats builds the /stats payload for one epoch (an O(V+E) walk,
// done once per construction or ingest, never per GET).
func (s *Server) computeStats(g *graph.Graph, epoch uint64) *StatsResponse {
	st := graph.ComputeStats(g)
	return &StatsResponse{
		Vertices:   st.NumVertices,
		Edges:      st.NumEdges,
		MaxDegree:  st.MaxDegree,
		AvgDegree:  st.AvgDegree,
		Labels:     st.NumLabels,
		EdgeLabels: g.HasEdgeLabels(),
		Epoch:      epoch,
	}
}

// BumpEpoch republishes the current graph under a new epoch and invalidates
// both cross-query caches — the hook for out-of-band graph mutation (an
// operator swapping data files): the result cache is purged and versioned
// out (the epoch participates in every key, so even an in-flight leader
// finishing late cannot resurface a stale body to new queries), and the
// shared NLCC store drops its recycled verdicts. Exactness never depended
// on either cache, so the bump only restores cold-start performance.
// /ingest drives the same invalidation through its own epoch swap.
// Deliberately a method, not an HTTP endpoint: an unauthenticated
// cache-flush would be a denial-of-service lever.
func (s *Server) BumpEpoch() {
	var epoch uint64
	if s.cfg.WAL != nil {
		// The WAL's epoch chain must stay dense, so a bump is logged as an
		// empty delta (which still advances the epoch) rather than skipping
		// a log position. A log failure wedges the bump — same contract as
		// ingest: no published epoch without a durable record.
		ep, _, err := s.snaps.ApplyLogged(&graph.Delta{}, func(e uint64) error {
			return s.cfg.WAL.Append(e, &graph.Delta{})
		})
		if err != nil {
			s.log.LogAttrs(context.Background(), slog.LevelError, "epoch bump not logged",
				slog.String("error", err.Error()))
			return
		}
		epoch = ep
	} else {
		epoch = s.snaps.Bump()
	}
	s.stats.Store(s.computeStats(s.snaps.Current(), epoch))
	s.purgeCaches()
}

// purgeCaches drops both cross-query caches after an epoch swap. The result
// cache's old-epoch keys are already unreachable (new queries key by the new
// epoch); purging just returns the memory early.
func (s *Server) purgeCaches() {
	if s.rcache != nil {
		s.rcache.purge()
	}
	if s.nlccShared != nil {
		s.nlccShared.Purge()
	}
}

// Handler returns the HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /match", s.handleMatch)
	mux.HandleFunc("POST /explore", s.handleExplore)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.cfg.EnableIngest {
		mux.HandleFunc("POST /ingest", s.handleIngest)
	}
	return mux
}

// MatchRequest is the /match and /explore request body.
type MatchRequest struct {
	// Template in the pattern text format.
	Template string `json:"template"`
	// K is the edit-distance budget.
	K int `json:"k"`
	// Count enumerates match counts per prototype.
	Count bool `json:"count"`
	// Vectors includes per-vertex match vectors for matching vertices.
	Vectors bool `json:"vectors"`
}

// PrototypeSummary describes one prototype's result. Exact is true when the
// prototype's edit-distance level completed — always on a full run; on a
// partial (budget-exhausted) run, non-exact prototypes' counts are unknown
// placeholders, never false positives.
type PrototypeSummary struct {
	Index      int    `json:"index"`
	Dist       int    `json:"dist"`
	Vertices   int    `json:"vertices"`
	MatchCount *int64 `json:"matches,omitempty"`
	Exact      bool   `json:"exact"`
}

// MatchResponse is the /match response body.
type MatchResponse struct {
	// Prototypes is always a JSON array (never null), one entry per
	// prototype.
	Prototypes []PrototypeSummary `json:"prototypes"`
	// Labels counts (vertex, prototype) labels generated.
	Labels int64 `json:"labels"`
	// Vectors maps vertex id → matched prototype indices (only matching
	// vertices). Always a JSON object (never null); populated only when
	// vectors were requested.
	Vectors map[string][]int `json:"vectors"`
	// ElapsedMS is the query's wall time.
	ElapsedMS int64 `json:"elapsed_ms"`
	// Partial is set when the query's budget ran out mid-pipeline: the
	// prototypes marked exact carry full-precision, full-recall results;
	// the rest are unknown (anytime partial result, Obs. 1).
	Partial bool `json:"partial"`
}

// ExploreResponse is the /explore response body.
type ExploreResponse struct {
	FoundDist          int   `json:"found_dist"`
	PrototypesSearched int   `json:"prototypes_searched"`
	MatchingVertices   int   `json:"matching_vertices"`
	ElapsedMS          int64 `json:"elapsed_ms"`
}

// StatsResponse is the /stats response body, describing the current graph
// epoch.
type StatsResponse struct {
	Vertices   int     `json:"vertices"`
	Edges      int     `json:"edges"`
	MaxDegree  int     `json:"max_degree"`
	AvgDegree  float64 `json:"avg_degree"`
	Labels     int     `json:"labels"`
	EdgeLabels bool    `json:"edge_labels"`
	Epoch      uint64  `json:"epoch"`
}

// request carries one query's bookkeeping from admission to the log line.
type request struct {
	id       string
	endpoint string
	start    time.Time
}

func (s *Server) begin(endpoint string) *request {
	return &request{
		id:       fmt.Sprintf("q%08d", s.qid.Add(1)),
		endpoint: endpoint,
		start:    time.Now(),
	}
}

// finish records the outcome in the metrics registry and emits the query's
// structured log line.
func (s *Server) finish(r *http.Request, q *request, outcome string, status int, attrs ...slog.Attr) {
	elapsed := time.Since(q.start)
	s.metrics.record(q.endpoint, outcome, elapsed)
	base := []slog.Attr{
		slog.String("qid", q.id),
		slog.String("endpoint", q.endpoint),
		slog.String("outcome", outcome),
		slog.Int("status", status),
		slog.Int64("elapsed_ms", elapsed.Milliseconds()),
		slog.String("remote", r.RemoteAddr),
	}
	s.log.LogAttrs(r.Context(), slog.LevelInfo, "query", append(base, attrs...)...)
}

// parseRequest decodes and validates the body. The body is capped at
// Config.MaxBodyBytes (413 on overflow). On failure it writes the error
// response, records the outcome and returns ok=false.
func (s *Server) parseRequest(w http.ResponseWriter, r *http.Request, q *request) (*MatchRequest, *pattern.Template, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req MatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
			s.finish(r, q, outcomeTooLarge, http.StatusRequestEntityTooLarge)
		} else {
			http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
			s.finish(r, q, outcomeBadRequest, http.StatusBadRequest)
		}
		return nil, nil, false
	}
	if req.K < 0 || req.K > s.MaxEditDistance {
		http.Error(w, fmt.Sprintf("k must be in [0,%d]", s.MaxEditDistance), http.StatusBadRequest)
		s.finish(r, q, outcomeBadRequest, http.StatusBadRequest, slog.Int("k", req.K))
		return nil, nil, false
	}
	t, err := pattern.Parse(strings.NewReader(req.Template))
	if err != nil {
		http.Error(w, fmt.Sprintf("bad template: %v", err), http.StatusBadRequest)
		s.finish(r, q, outcomeBadRequest, http.StatusBadRequest, slog.Int("k", req.K))
		return nil, nil, false
	}
	return &req, t, true
}

// queryContext derives the pipeline context: the request context (fires on
// client disconnect and server shutdown) bounded by the query timeout plus
// the watchdog grace. With the downgrade enabled, the wall *budget* fires at
// QueryTimeout and turns the query into a partial result; the context
// deadline is the backstop that kills a query which cannot even wind down
// within the grace.
func (s *Server) queryContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.QueryTimeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.QueryTimeout+s.cfg.partialGrace())
	}
	return context.WithCancel(r.Context())
}

// queryBudget assembles the per-query budget from the server config: work
// and byte caps, plus the watchdog's wall cap when the partial downgrade is
// enabled.
func (s *Server) queryBudget() core.Budget {
	b := core.Budget{MaxWork: s.cfg.MaxWork, MaxBytes: s.cfg.MaxBytes}
	if s.cfg.partialGrace() > 0 {
		b.MaxWall = s.cfg.QueryTimeout
	}
	return b
}

// withQueryBudget attaches the per-query budget tracker to ctx (no-op when
// the server is unbudgeted). It is called after admission so queue wait
// never consumes the query's wall budget.
func (s *Server) withQueryBudget(ctx context.Context) context.Context {
	return core.WithBudget(ctx, s.queryBudget())
}

// retryAfterSeconds derives the 503 Retry-After hint from current load
// instead of a hardcoded constant: the backlog ahead of a retrying client
// (in-flight plus queued queries) divided over the service rate the slots
// sustain, using the configured query timeout as the per-query worst case
// (1s per query when no timeout is configured). Clamped to [1, 60] so the
// header is always a positive integer and never tells a client to go away
// for minutes just because the queue momentarily spiked.
func (s *Server) retryAfterSeconds() int {
	backlog := s.sched.inFlight() + s.sched.waiting() + 1
	perQuery := s.cfg.QueryTimeout
	if perQuery <= 0 {
		perQuery = time.Second
	}
	secs := int64(perQuery.Seconds()*float64(backlog)/float64(s.cfg.MaxConcurrent) + 0.5)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return int(secs)
}

// shedMemory rejects the query with 503 when the heap is above the high
// watermark. It reports whether the request was handled.
func (s *Server) shedMemory(w http.ResponseWriter, r *http.Request, q *request) bool {
	if !s.mem.over() {
		return false
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", s.retryAfterSeconds()))
	http.Error(w, "server over memory watermark, retry later", http.StatusServiceUnavailable)
	s.finish(r, q, outcomeMemOverload, http.StatusServiceUnavailable)
	return true
}

// admit acquires a pipeline slot, translating scheduler errors into HTTP
// responses. On failure it records the outcome and returns nil.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter, r *http.Request, q *request) func() {
	release, err := s.sched.acquire(ctx)
	switch {
	case err == nil:
		return release
	case errors.Is(err, errOverloaded):
		w.Header().Set("Retry-After", fmt.Sprintf("%d", s.retryAfterSeconds()))
		http.Error(w, "server overloaded, retry later", http.StatusServiceUnavailable)
		s.finish(r, q, outcomeOverload, http.StatusServiceUnavailable)
	case errors.Is(err, context.DeadlineExceeded):
		http.Error(w, "queue wait exceeded query timeout", http.StatusGatewayTimeout)
		s.finish(r, q, outcomeTimeout, http.StatusGatewayTimeout)
	default: // context.Canceled: client went away while queued
		s.finish(r, q, outcomeCanceled, http.StatusServiceUnavailable)
	}
	return nil
}

// writePipelineError maps a pipeline error to an HTTP response and outcome.
func (s *Server) writePipelineError(w http.ResponseWriter, r *http.Request, q *request, err error, k int) {
	var pe *core.PanicError
	switch {
	case errors.As(err, &pe):
		// The pipeline panicked inside this query; the panic was contained
		// to the query's goroutines and the process keeps serving.
		s.metrics.notePanic()
		s.log.LogAttrs(r.Context(), slog.LevelError, "pipeline panic",
			slog.String("qid", q.id), slog.String("panic", fmt.Sprint(pe.Val)),
			slog.String("stack", string(pe.Stack)))
		http.Error(w, "internal pipeline error", http.StatusInternalServerError)
		s.finish(r, q, outcomePanic, http.StatusInternalServerError, slog.Int("k", k))
	case errors.Is(err, core.ErrBudgetExhausted):
		// Budget exhaustion with no partial result to salvage (top-down
		// exploration): report it like a server-side deadline.
		s.metrics.noteBudgetExhausted(false)
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
		s.finish(r, q, outcomeBudget, http.StatusGatewayTimeout, slog.Int("k", k))
	case errors.Is(err, context.DeadlineExceeded):
		http.Error(w, fmt.Sprintf("query exceeded timeout %v", s.cfg.QueryTimeout), http.StatusGatewayTimeout)
		s.finish(r, q, outcomeTimeout, http.StatusGatewayTimeout, slog.Int("k", k))
	case errors.Is(err, context.Canceled):
		// Client is gone; nothing useful can be written.
		s.finish(r, q, outcomeCanceled, http.StatusServiceUnavailable, slog.Int("k", k))
	default:
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		s.finish(r, q, outcomeUnprocessable, http.StatusUnprocessableEntity, slog.Int("k", k))
	}
}

// queryConfig is the pipeline config of one query at edit distance k: the
// pipeline defaults plus the server's cache and worker settings.
func (s *Server) queryConfig(k int) core.Config {
	cfg := core.DefaultConfig(k)
	cfg.CacheBytes = s.cfg.CacheBytes
	cfg.SharedCache = s.nlccShared
	if s.cfg.Workers > 0 {
		cfg.Workers = s.cfg.Workers
	}
	return cfg
}

func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	q := s.begin("match")
	if s.cfg.Coordinator != nil {
		s.forward(w, r, q, dist.EndpointMatch)
		return
	}
	req, t, ok := s.parseRequest(w, r, q)
	if !ok {
		return
	}

	// Pin the current graph epoch for the query's whole lifetime — cache
	// lookup, pipeline run and response all see one immutable snapshot,
	// even if /ingest swaps in the next epoch mid-flight.
	snap := s.snaps.Acquire()
	defer snap.Release()

	// Cross-query result cache: canonicalize the template and consult the
	// cache before memory shedding and admission — hits and coalesced
	// followers consume neither a heap check nor a scheduler slot. From
	// here on the pipeline (if any) runs on the canonical form, which is
	// what makes response bodies byte-identical across isomorphic
	// submissions. The key carries the pinned snapshot's epoch, so entries
	// version out on every ingest.
	var ckey string
	var leaderFlight *flight
	cacheable := s.rcache != nil
	if cacheable {
		t, ckey, cacheable = canonicalizeForCache(snap.Epoch(), req, t)
	}
	if cacheable {
		if body := s.rcache.get(ckey); body != nil {
			s.rcache.hits.Add(1)
			s.finish(r, q, outcomeCacheHit, http.StatusOK, slog.Int("k", req.K))
			writeRawJSON(w, body)
			return
		}
		f, leader := s.flights.join(ckey)
		if leader {
			leaderFlight = f
		} else {
			wctx, wcancel := s.queryContext(r)
			defer wcancel()
			select {
			case <-f.done:
				if f.body != nil {
					s.rcache.hits.Add(1)
					s.finish(r, q, outcomeCoalesced, http.StatusOK, slog.Int("k", req.K))
					writeRawJSON(w, f.body)
					return
				}
				// The leader failed or went partial; run this query
				// independently rather than propagating a foreign error.
			case <-wctx.Done():
				s.finish(r, q, outcomeCanceled, http.StatusServiceUnavailable)
				return
			}
		}
	}
	// published stays nil on every failure path, releasing followers to
	// fend for themselves; the deferred complete guarantees they never
	// wait on a dead leader.
	var published []byte
	if leaderFlight != nil {
		s.rcache.misses.Add(1)
		defer func() { s.flights.complete(ckey, leaderFlight, published) }()
	}

	if s.shedMemory(w, r, q) {
		return
	}
	ctx, cancel := s.queryContext(r)
	defer cancel()
	release := s.admit(ctx, w, r, q)
	if release == nil {
		return
	}
	ctx = s.withQueryBudget(ctx)

	cfg := s.queryConfig(req.K)
	cfg.CountMatches = req.Count
	res, err := func() (res *core.Result, err error) {
		defer recoverToPanicError(&err)
		if h := testHookMatch; h != nil {
			h(req)
		}
		return core.RunParallelContext(ctx, snap.Graph(), t, cfg, s.cfg.Parallelism)
	}()
	if err != nil && (res == nil || !res.Partial) {
		release()
		s.writePipelineError(w, r, q, err, req.K)
		return
	}
	s.metrics.observePipeline(&res.Metrics)
	if res.Partial {
		s.metrics.noteBudgetExhausted(true)
	}
	// Build the response while still holding the slot (it reads pipeline
	// state), then release BEFORE serialization: encoding a huge Vectors
	// map to a slow client must not occupy query capacity.
	resp := buildMatchResponse(snap.Graph(), res, req, time.Since(q.start))
	release()

	outcome := outcomeOK
	if resp.Partial {
		outcome = outcomePartial
	}
	s.finish(r, q, outcome, http.StatusOK,
		slog.Int("k", req.K),
		slog.Int("prototypes", len(resp.Prototypes)),
		slog.Int64("labels", resp.Labels),
		slog.Bool("partial", resp.Partial))
	if cacheable {
		// Serialize once and serve the leader, the cache and every follower
		// the same bytes — warm responses are bit-identical to this cold one
		// by construction. Partial results are never cached or published:
		// they reflect this query's budget, not the graph.
		body, err := json.Marshal(resp)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		body = append(body, '\n')
		if leaderFlight != nil && !resp.Partial {
			s.rcache.put(ckey, body)
			published = body
		}
		writeRawJSON(w, body)
		return
	}
	writeJSON(w, resp)
}

// testHookMatch, when set, runs inside handleMatch's panic-isolation
// boundary, just before the pipeline call — the seam the panic-isolation
// test uses to poison one query.
var testHookMatch func(*MatchRequest)

// recoverToPanicError converts any panic on the handler goroutine — e.g. a
// bug in the sequential pipeline phases, which run on the calling goroutine
// — into a *core.PanicError, isolating it to this query. (Panics inside
// pipeline worker goroutines are already converted by core itself.)
func recoverToPanicError(err *error) {
	if r := recover(); r != nil {
		*err = &core.PanicError{Val: r, Stack: debug.Stack()}
	}
}

// buildMatchResponse translates the pipeline result to the wire shape. g is
// the snapshot the query ran on: pipeline vertex ids are internal (possibly
// degree-relabeled), the wire speaks external ids.
func buildMatchResponse(g *graph.Graph, res *core.Result, req *MatchRequest, elapsed time.Duration) MatchResponse {
	resp := MatchResponse{
		Prototypes: make([]PrototypeSummary, 0, len(res.Set.Protos)),
		Vectors:    map[string][]int{},
		Labels:     res.LabelsGenerated(),
		ElapsedMS:  elapsed.Milliseconds(),
		Partial:    res.Partial,
	}
	// exact maps each edit distance to whether its level completed.
	exact := make(map[int]bool, len(res.Levels))
	for _, lv := range res.Levels {
		exact[lv.Dist] = lv.Complete
	}
	for pi, p := range res.Set.Protos {
		ps := PrototypeSummary{Index: pi, Dist: p.Dist, Exact: exact[p.Dist]}
		if sol := res.Solutions[pi]; sol != nil {
			ps.Vertices = sol.Verts.Count()
			if req.Count {
				c := sol.MatchCount
				ps.MatchCount = &c
			}
		}
		resp.Prototypes = append(resp.Prototypes, ps)
	}
	if req.Vectors {
		res.UnionVertices().ForEach(func(v int) {
			key := fmt.Sprintf("%d", g.ExternalID(graph.VertexID(v)))
			resp.Vectors[key] = res.MatchVector(graph.VertexID(v))
		})
	}
	return resp
}

func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	q := s.begin("explore")
	if s.cfg.Coordinator != nil {
		s.forward(w, r, q, dist.EndpointExplore)
		return
	}
	req, t, ok := s.parseRequest(w, r, q)
	if !ok {
		return
	}
	snap := s.snaps.Acquire()
	defer snap.Release()
	if s.shedMemory(w, r, q) {
		return
	}
	ctx, cancel := s.queryContext(r)
	defer cancel()
	release := s.admit(ctx, w, r, q)
	if release == nil {
		return
	}
	ctx = s.withQueryBudget(ctx)

	res, err := func() (res *core.TopDownResult, err error) {
		defer recoverToPanicError(&err)
		return core.RunTopDownContext(ctx, snap.Graph(), t, s.queryConfig(req.K))
	}()
	if err != nil {
		release()
		s.writePipelineError(w, r, q, err, req.K)
		return
	}
	s.metrics.observePipeline(&res.Metrics)
	resp := ExploreResponse{
		FoundDist:          res.FoundDist,
		PrototypesSearched: res.PrototypesSearched,
		MatchingVertices:   res.MatchingVertices.Count(),
		ElapsedMS:          time.Since(q.start).Milliseconds(),
	}
	release()

	s.finish(r, q, outcomeOK, http.StatusOK,
		slog.Int("k", req.K),
		slog.Int("found_dist", resp.FoundDist))
	writeJSON(w, resp)
}

// handleStats serves the graph statistics computed once per epoch (at
// construction and after each ingest), so /stats is safe to poll as a
// health probe.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.stats.Load())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var cg cacheGauges
	if s.rcache != nil {
		cg.resultHits = s.rcache.hits.Load()
		cg.resultMisses = s.rcache.misses.Load()
		cg.resultEvictions = s.rcache.evictions.Load()
		cg.resultBytes, cg.resultEntries = s.rcache.stats()
	}
	if s.nlccShared != nil {
		cg.sharedHits = s.nlccShared.Hits()
		cg.sharedMisses = s.nlccShared.Misses()
		cg.sharedEvictions = s.nlccShared.Evictions()
		cg.sharedBytes = s.nlccShared.Bytes()
		cg.sharedSets = s.nlccShared.Sets()
	}
	var wg walGauges
	if s.cfg.WAL != nil {
		wg = sampleWALGauges(s.cfg.WAL.Stats())
	}
	s.metrics.writeProm(w, s.sched.inFlight(), s.sched.waiting(), s.mem.heapBytes(), cg, wg,
		s.snaps.Epoch(), s.snaps.Retired(), s.snaps.ReclaimedBytes())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// writeRawJSON serves a pre-serialized response body verbatim — the cache
// and single-flight paths, where byte-identity with the original response
// matters.
func writeRawJSON(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}
