GO ?= go

.PHONY: build test check bench fuzz-smoke loopback-smoke crash-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the fast pre-commit gate: static analysis plus the
# race-detector suites for the concurrent parts of the tree (the serving
# layer — including the cross-query result cache, single-flight and
# warm/cold differential suites — the pipeline's cancellation/parallel
# paths, the canonicalization property tests backing the cache keys, and
# the distributed runtime's chaos and anytime-partial differential suites,
# including the real-socket TCP transport and coordinator suites). The core
# and server suites run at GOMAXPROCS 1 and 4, so schedule-dependent
# accounting fails here whatever the host's core count; -count=1 because
# the test cache does not key on GOMAXPROCS.
check:
	$(GO) vet ./...
	GOMAXPROCS=1 $(GO) test -race -count=1 ./internal/server/ ./internal/core/
	GOMAXPROCS=4 $(GO) test -race -count=1 ./internal/server/ ./internal/core/
	$(GO) test -race ./internal/wal/
	$(GO) test -race -run 'Canonical' ./internal/pattern/
	$(GO) test -race -run 'Chaos|Partial|SharedCache|Coordinator|RankServer|DialGroup' ./internal/dist/...

# fuzz-smoke runs each native fuzz target for a short burst — enough to
# shake out loader/parser/ingest regressions on hostile input without a
# long fuzz campaign. Targets run one at a time: `go test -fuzz` refuses a pattern
# matching more than one target.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadEdgeList$$' -fuzztime $(FUZZTIME) ./internal/graph/
	$(GO) test -run '^$$' -fuzz '^FuzzReadBinary$$' -fuzztime $(FUZZTIME) ./internal/graph/
	$(GO) test -run '^$$' -fuzz '^FuzzApplyDelta$$' -fuzztime $(FUZZTIME) ./internal/graph/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/pattern/
	$(GO) test -run '^$$' -fuzz '^FuzzGenerate$$' -fuzztime $(FUZZTIME) ./internal/prototype/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime $(FUZZTIME) ./internal/dist/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEnvelope$$' -fuzztime $(FUZZTIME) ./internal/dist/
	$(GO) test -run '^$$' -fuzz '^FuzzReplayWAL$$' -fuzztime $(FUZZTIME) ./internal/wal/

# bench runs the Go micro-benchmarks and then the kernel benchmark harness,
# which times the core kernels sequential vs -workers, the end-to-end
# pipeline, the resource-governance overhead
# (budget charging and bounded-cache eviction), the distributed engine's
# fault-tolerance overhead, the real-socket TCP rank transport's overhead
# (in-memory FT vs loopback sockets, clean and faulted), the serving
# layer's cold-vs-warm cross-query caching, the incremental
# delta-localized re-match vs a full recompute, the kernel redundancy
# eliminations (symmetry breaking + failure guards off vs on on symmetric
# templates, expansion counters and counts cross-checked), and the WAL
# durability overhead (append+fsync per sync policy, plus tail-replay vs
# checkpoint-bounded recovery time, recovered state signature-checked
# against the live graph) on a seeded R-MAT graph, and writes a
# machine-readable report to BENCH_PR10.json (including the cpu count, so
# single-core runs are honestly distinguishable from regressions).
bench:
	$(GO) test -run xxx -bench . ./internal/server/ ./internal/core/
	$(GO) run ./cmd/kernelbench -out BENCH_PR10.json

# loopback-smoke stands up a real multi-process deployment on loopback —
# four amatchrank workers plus an amatchd coordinator — and byte-diffs a
# routed /match response against a direct in-process server's.
loopback-smoke:
	./scripts/loopback_smoke.sh

# crash-smoke kill -9s a WAL-backed amatchd mid-ingest and asserts the
# restarted process recovers every acknowledged batch: same epoch, same
# /stats accounting, same /match counts.
crash-smoke:
	./scripts/crash_restart_smoke.sh
