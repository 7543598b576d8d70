GO ?= go

# Benchmark iteration counts; override for quicker or steadier runs,
# e.g. `make bench BENCHTIME_MATCH=200x BENCHTIME_PIPELINE=1x`.
BENCHTIME_MATCH ?= 2000x
BENCHTIME_PIPELINE ?= 3x

.PHONY: check lint-determinism bench-compile build vet test race bench bench-pipeline bench-forest bench-ingest bench-linkd bench-scripts bench-1m chaos

## check: the full gate — build, vet, determinism lint, the
## bench-compile smoke, and the race-enabled test suite. The
## worker-pool primitives behind the analytic pipeline, the
## crash-safety stack (WAL storage, collector drain, fault injection),
## the obs metrics registry, the forest trainer and the external sorter
## plus its spill/merge consumers (the streaming pipeline) get an
## explicit vet + race pass so CI keeps gating them even if the package
## list is ever narrowed. It also runs a 10 s smoke of the binary
## record codec's fuzz target and the benchmark module's own tests
## (perfbench is a separate module, so ./... does not reach it).
check: lint-determinism bench-compile
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) vet ./internal/parallel/
	$(GO) vet ./internal/storage/ ./internal/collector/ ./internal/faultinject/
	$(GO) vet ./internal/obs/
	$(GO) vet ./internal/mlearn/
	$(GO) vet ./internal/scriptsim/
	$(GO) vet ./internal/extsort/
	$(GO) vet ./internal/linkd/
	$(GO) test -race ./internal/parallel/
	$(GO) test -race ./internal/storage/ ./internal/collector/ ./internal/faultinject/
	$(GO) test -race ./internal/obs/
	$(GO) test -race ./internal/mlearn/
	$(GO) test -race ./internal/scriptsim/
	$(GO) test -race ./internal/extsort/
	$(GO) test -race ./internal/linkd/
	$(GO) test -race -run 'TestSpill|TestStreamReport|TestSimulateGolden|TestShardedWorkerCountInvariance' ./internal/population/ ./internal/report/
	$(GO) test -race ./...
	$(GO) test -run=NONE -fuzz=FuzzRecordCodec -fuzztime=10s ./internal/fingerprint/
	cd perfbench && $(GO) test .

## lint-determinism: grep-based guard — the simulation packages must be
## pure functions of the seed (no time.Now, no global math/rand, no
## Date.now in non-test files).
lint-determinism:
	sh scripts/lint_determinism.sh

## bench-compile: one-iteration smoke over every benchmark in the root
## bench_*_test.go harnesses, so a refactor cannot silently rot them —
## the JSON emitters (TestEmit*Bench) are env-gated and skip unless
## their BENCH_*_OUT is set, so only the Benchmark* functions run here.
## The simulator's and the rasterizer's layer benchmarks
## (BenchmarkSimulateSpill, BenchmarkRender, ...) get the same smoke.
bench-compile:
	$(GO) test -run=NONE -bench=. -benchtime=1x -timeout 20m .
	$(GO) test -run=NONE -bench=. -benchtime=1x -timeout 20m ./internal/population/ ./internal/canvas/

## chaos: the crash-recovery suite, repeated to shake out schedule- and
## timing-dependent bugs: kill/restart mid-stream, torn WAL tails,
## fsync faults, drain semantics, and seq-based idempotency — all under
## the race detector.
chaos:
	$(GO) test -race -count=3 -run 'TestChaos|TestRecover|TestShutdown|TestSeqIdempotent|TestWAL' ./internal/collector/ ./internal/storage/ ./internal/linkd/

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## bench: the Figure 9 matching-time benchmarks plus the engine
## ablations (blocking on/off, serial vs parallel scoring), followed by
## the analytic-pipeline stage benchmarks and the BENCH_pipeline.json
## throughput snapshot (per-stage records/sec at 1 worker and NumCPU).
bench:
	$(GO) test -run xxx -bench 'BenchmarkFigure9MatchTime|BenchmarkTopKBlocked|BenchmarkTopKParallel' -benchtime $(BENCHTIME_MATCH) .
	$(GO) test -run xxx -bench BenchmarkPipeline -benchtime $(BENCHTIME_PIPELINE) .
	BENCH_PIPELINE_OUT=BENCH_pipeline.json $(GO) test -run TestEmitPipelineBench -v -timeout 60m .

## bench-pipeline: only the pipeline snapshot (BENCH_PIPELINE_USERS
## overrides the default 20000-user world).
bench-pipeline:
	BENCH_PIPELINE_OUT=BENCH_pipeline.json $(GO) test -run TestEmitPipelineBench -v -timeout 60m .

## bench-1m: the out-of-core headline — simulate → spill → merge →
## link at 1M users in bounded memory, recording peak RSS, spill bytes
## and per-stage throughput into BENCH_pipeline.json's "stream" entry.
## BENCH_STREAM_USERS overrides the default 1,000,000 (e.g.
## BENCH_STREAM_USERS=20000 for a quick local run); BENCH_STREAM_MEM_MIB
## sets the simulate batching budget (default 256); BENCH_STREAM_SPILL_DIR
## pins the spill directory (default: per-test temp dir).
bench-1m:
	BENCH_STREAM_OUT=BENCH_pipeline.json $(GO) test -run TestEmitStreamBench -v -timeout 600m .

## bench-forest: the learning-based linker's forest snapshot
## (BENCH_forest.json): pair preprocessing and forest training
## throughput serial vs parallel, a tree/depth sweep, and scalar vs
## batch prediction incl. LearnLinker.TopK latency. BENCH_FOREST_USERS
## overrides the default 2500-user world.
bench-forest:
	BENCH_FOREST_OUT=BENCH_forest.json $(GO) test -run TestEmitForestBench -v -timeout 30m .

## bench-linkd: the linking-service snapshot (BENCH_linkd.json): TopK
## query p50/p95/p99 at 100k and 1M table entries, rule-based and
## learning-based modes. BENCH_LINKD_ENTRIES overrides the table sizes
## (comma-separated, e.g. BENCH_LINKD_ENTRIES=100000), and
## BENCH_LINKD_QUERIES the per-cell query count (default 200).
bench-linkd:
	BENCH_LINKD_OUT=BENCH_linkd.json $(GO) test -run TestEmitLinkdBench -v -timeout 120m .

## bench-scripts: the script-detection snapshot (BENCH_scriptdet.json):
## corpus simulate+featurize timing, forest training on the wide sparse
## API-count matrix (dense vs sparse column path × serial vs parallel),
## batch-predict latency and held-out precision/recall/F1.
## BENCH_SCRIPTDET_SCRIPTS overrides the default 4000-script corpus.
bench-scripts:
	BENCH_SCRIPTDET_OUT=BENCH_scriptdet.json $(GO) test -run TestEmitScriptdetBench -v -timeout 30m .

## bench-ingest: the collection-path snapshot (BENCH_ingest.json):
## accepted records/sec and per-record ACK p50/p99 across 1/4/8 shards
## × newline-JSON vs batched-binary framing, every cell at
## fsync=always. BENCH_INGEST_RECORDS overrides the default 6000
## records per cell.
bench-ingest:
	BENCH_INGEST_OUT=BENCH_ingest.json $(GO) test -run TestEmitIngestBench -v -timeout 30m .
