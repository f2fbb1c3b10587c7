// Command amatchrank is a rank worker process: it loads the background
// graph, listens on a TCP socket, and serves /match and /explore queries
// routed to it by an amatchd coordinator (amatchd -ranks-addr). A rank
// group of N amatchrank processes plus one coordinator is the
// multi-process deployment shape — each worker runs the full serving
// stack (scheduler, result cache, shared NLCC store, budgets), so a
// routed query takes exactly the code path a direct HTTP request would
// and produces byte-identical response bodies.
//
// On connect the worker greets the coordinator with its wire version and
// a structural graph signature; the coordinator refuses a group whose
// workers disagree (or disagree with its own graph), so a worker serving
// a different file or relabeling can never silently answer queries
// against the wrong data. Every worker must therefore load the same
// graph file as the coordinator.
//
// Usage:
//
//	amatchrank -graph g.txt -listen 127.0.0.1:9091
//	           [-querytimeout 30s] [-maxk 6] [-workers N]
//	           [-max-work N] [-max-bytes N]
//	           [-cache-bytes N] [-result-cache-bytes N]
//	           [-shared-nlcc=false]
//
// The process shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// routed queries.
package main

import (
	"context"
	"flag"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"approxmatch/internal/dist"
	"approxmatch/internal/graph"
	"approxmatch/internal/server"
)

func main() {
	var (
		graphPath    = flag.String("graph", "", "background graph edge-list file (required)")
		listen       = flag.String("listen", "127.0.0.1:9091", "rank worker listen address")
		maxK         = flag.Int("maxk", 6, "largest accepted edit distance")
		queryTimeout = flag.Duration("querytimeout", 30*time.Second, "per-query pipeline timeout (0 = none)")
		workers      = flag.Int("workers", 0, "per-query kernel workers (0 = scheduler-aware default, -1 = sequential)")
		maxWork      = flag.Int64("max-work", 0, "per-query pipeline work-unit budget (0 = no limit)")
		maxBytes     = flag.Int64("max-bytes", 0, "per-query auxiliary allocation budget in bytes (0 = no limit)")
		cacheBytes   = flag.Int64("cache-bytes", 0, "work-recycling cache cap in bytes (0 = unbounded)")
		resultCache  = flag.Int64("result-cache-bytes", 64<<20, "cross-query result cache cap in bytes (0 = disabled)")
		sharedNLCC   = flag.Bool("shared-nlcc", true, "share one NLCC work-recycling store across queries")
	)
	flag.Parse()
	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	if *graphPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*graphPath)
	if err != nil {
		fatal(logger, "open graph", err)
	}
	g, err := graph.ReadEdgeList(f)
	f.Close()
	if err != nil {
		fatal(logger, "read graph", err)
	}
	// Same load path as amatchd: the graph signature covers the relabeled
	// structure.
	g = graph.RelabelByDegree(g)
	s := server.NewWithConfig(g, server.Config{
		QueryTimeout:     *queryTimeout,
		Workers:          *workers,
		MaxWork:          *maxWork,
		MaxBytes:         *maxBytes,
		CacheBytes:       *cacheBytes,
		ResultCacheBytes: *resultCache,
		SharedNLCC:       *sharedNLCC,
		Logger:           logger,
	})
	s.MaxEditDistance = *maxK

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(logger, "listen", err)
	}
	hello := dist.HelloInfo{
		Vertices:  g.NumVertices(),
		Edges:     g.NumDirectedEdges(),
		Signature: dist.GraphSignature(g),
	}
	rs := dist.NewRankServer(ln, hello, s.RankHandler())
	logger.Info("rank worker serving",
		"addr", rs.Addr(), "vertices", hello.Vertices, "edges", hello.Edges,
		"signature", hello.Signature)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- rs.Serve() }()

	select {
	case err := <-errc:
		if err != nil {
			fatal(logger, "serve", err)
		}
	case <-ctx.Done():
	}
	stop()
	logger.Info("shutting down")
	rs.Close()
	logger.Info("stopped")
}

func fatal(logger *slog.Logger, msg string, err error) {
	logger.Error(msg, "err", err)
	os.Exit(1)
}
