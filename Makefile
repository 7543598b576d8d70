GO ?= go
GOFMT ?= gofmt

# Benchmark iteration count; override for quicker or steadier runs,
# e.g. `make bench BENCHTIME_MATCH=200x`.
BENCHTIME_MATCH ?= 2000x

.PHONY: check fmt-check lint-determinism bench-compile build vet test race bench bench-ingest bench-linkd chaos fuzz loc

## check: the full gate — gofmt, build, vet, determinism lint, the
## bench-compile smoke, and the race-enabled test suite over every
## package of the root module. That suite carries the root's two
## inventory gates: the flag inventory (flags_test.go,
## TestCommandFlagInventory) and the dead-API gate (api_test.go,
## TestNoDeadInternalAPI). The dead-API gate fails, counting only
## non-test code of the root module and perfbench, on an exported
## identifier of internal/ that nothing uses, on a struct field that
## nothing reads, and on an exported struct field that nothing sets.
## It also runs 10 s smokes of the binary record codec's fuzz target
## and of the collector's request handler, whose target feeds it both
## newline-JSON and binary-codec payloads (new-input minimization
## capped at one run, so the budget goes to fuzzing rather than
## shrinking inputs), and vets and tests the benchmark module
## (perfbench is a separate module, so ./... does not reach it).
check: fmt-check lint-determinism bench-compile
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -run=NONE -fuzz=FuzzRecordCodec -fuzztime=10s -fuzzminimizetime=1x ./internal/fingerprint/
	$(GO) test -run=NONE -fuzz='^FuzzServerHandle$$' -fuzztime=10s -fuzzminimizetime=1x ./internal/collector/
	cd perfbench && $(GO) vet .
	cd perfbench && $(GO) test .

## fmt-check: fail if any Go file of either module (the root and
## perfbench) is not gofmt-formatted. .bench_build holds the
## benchmark's build cache and is skipped.
fmt-check:
	@out=$$(find . -name .bench_build -prune -o -name '*.go' -print | xargs $(GOFMT) -l); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

## lint-determinism: grep-based guard — the simulation packages must be
## pure functions of the seed (no time.Now, no global math/rand, no
## Date.now in non-test files).
lint-determinism:
	sh scripts/lint_determinism.sh

## bench-compile: one-iteration smoke over every benchmark in the root
## bench_*_test.go harnesses, so a refactor cannot silently rot them —
## the two JSON emitters (TestEmitIngestBench, TestEmitLinkdBench) are
## env-gated and skip unless their BENCH_*_OUT is set, so only the
## Benchmark* functions run here.
## The simulator's and the rasterizer's layer benchmarks
## (BenchmarkSimulateSpill, BenchmarkRender, ...) get the same smoke.
bench-compile:
	$(GO) test -run=NONE -bench=. -benchtime=1x -timeout 20m .
	$(GO) test -run=NONE -bench=. -benchtime=1x -timeout 20m ./internal/population/ ./internal/canvas/

## loc: the ROADMAP's size yardstick — non-test Go lines in the root
## module (perfbench and the benchmark's build cache excluded) and in
## perfbench/.
loc:
	@printf 'root      %s\n' $$(find . -path ./perfbench -prune -o -name .bench_build -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l)
	@printf 'perfbench %s\n' $$(find perfbench -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l)

## chaos: the crash-recovery suite, repeated to shake out schedule- and
## timing-dependent bugs: kill/restart mid-stream, torn WAL tails,
## fsync faults, drain semantics, and seq-based idempotency — all under
## the race detector.
chaos:
	$(GO) test -race -count=3 -run 'TestChaos|TestRecover|Shutdown|TestSeqIdempotent|TestWAL' ./internal/collector/ ./internal/storage/ ./internal/linkd/

## fuzz: run every fuzz target for FUZZTIME each (default 10s), one
## -fuzz='^Name$$' run per target, since go test fuzzes one target at a
## time. New-input minimization is capped at one run, as in check's
## smokes. Twelve targets take about two minutes, so this is not
## a CI step; `make check` keeps its two 10 s smokes.
FUZZTIME ?= 10s
fuzz:
	@for f in $$(find . -name .bench_build -prune -o -path ./perfbench -prune -o -name '*_test.go' -print | xargs grep -l '^func Fuzz' | sort); do \
		for name in $$(grep -o '^func Fuzz[A-Za-z0-9_]*' $$f | cut -c6-); do \
			echo "== $$(dirname $$f) $$name"; \
			$(GO) test -run=NONE -fuzz="^$$name\$$" -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x $$(dirname $$f)/ || exit 1; \
		done; \
	done

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## bench: the Figure 9 matching-time benchmarks plus the engine
## ablations (blocking on/off, serial vs parallel scoring). The
## analytic pipeline's throughput, latency and peak RSS are the
## repository benchmark's pipeline workload
## (`bash perfbench/run.sh --workload pipeline`).
bench:
	$(GO) test -run xxx -bench 'BenchmarkFigure9MatchTime|BenchmarkTopKBlocked|BenchmarkTopKParallel' -benchtime $(BENCHTIME_MATCH) .

## bench-linkd: the linking-service snapshot (BENCH_linkd.json): TopK
## query p50/p95/p99 at 100k and 1M table entries, rule-based and
## learning-based modes. BENCH_LINKD_ENTRIES overrides the table sizes
## (comma-separated, e.g. BENCH_LINKD_ENTRIES=100000), and
## BENCH_LINKD_QUERIES the per-cell query count (default 200).
bench-linkd:
	BENCH_LINKD_OUT=BENCH_linkd.json $(GO) test -run TestEmitLinkdBench -v -timeout 120m .

## bench-ingest: the collection-path snapshot (BENCH_ingest.json):
## accepted records/sec and per-record ACK p50/p99 across 1/4/8 shards
## × newline-JSON vs batched-binary framing, every cell at
## fsync=always. BENCH_INGEST_RECORDS overrides the default 6000
## records per cell.
bench-ingest:
	BENCH_INGEST_OUT=BENCH_ingest.json $(GO) test -run TestEmitIngestBench -v -timeout 30m .
