# Developer entry points. `make check` is the full gate: tier-1
# (build + test, matching ROADMAP.md) plus gofmt, vet, the race detector,
# the nsdf-lint analyzer suite, a 5-second smoke of each of the nine
# fuzz targets (every parser of untrusted bytes has one), a
# reduced-size smoke of every benchmark harness (read path, trace
# overhead, block cache, sharded tier, compression, lint, serving),
# vet + tests of the bench/ module, which tier-1 does not compile, and
# the non-test line count every PR reports its delta against.

GO ?= go

.PHONY: build test fmt-check vet race lint loc fuzz-smoke check bench-e2e-check bench-readpath bench-readpath-smoke bench-trace bench-trace-smoke bench-cache bench-cache-smoke bench-shard bench-shard-smoke bench-compression bench-compression-smoke bench-lint bench-lint-smoke bench-serving bench-serving-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# gofmt prints the files it would rewrite; any name is a failure.
fmt-check:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Run the in-repo analyzer suite (internal/lint) over every package.
# Exit 1 means findings; fix them or annotate with //lint:allow <name>.
lint:
	$(GO) run ./cmd/nsdf-lint ./...

# Non-test, non-testdata Go lines per package directory and in total:
# the figure ROADMAP aim 2 asks every PR to report its delta of. Run it
# on the parent commit and on the change.
loc:
	@for d in internal/* cmd/* bench examples; do \
		printf '%7d %s\n' "$$(find $$d -name '*.go' -not -name '*_test.go' -not -path '*/testdata/*' | xargs cat | wc -l)" $$d; \
	done
	@printf '%7d total\n' "$$(find . -name '*.go' -not -name '*_test.go' -not -path '*/testdata/*' -not -path './.*' | xargs cat | wc -l)"

# Briefly run each native fuzz target so the fuzz harnesses stay
# compiling and the properties hold on fresh coverage-guided inputs.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzSniff$$' -fuzztime=5s ./internal/convert
	$(GO) test -run '^$$' -fuzz '^FuzzHZRuns$$' -fuzztime=5s ./internal/hz
	$(GO) test -run '^$$' -fuzz '^FuzzTilePlan$$' -fuzztime=5s ./internal/hz
	$(GO) test -run '^$$' -fuzz '^FuzzCodecDecode$$' -fuzztime=5s ./internal/compress
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBytes$$' -fuzztime=5s ./internal/tiff
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBytes$$' -fuzztime=5s ./internal/netcdf
	$(GO) test -run '^$$' -fuzz '^FuzzMetaUnmarshalText$$' -fuzztime=5s ./internal/idx
	$(GO) test -run '^$$' -fuzz '^FuzzParsePeers$$' -fuzztime=5s ./internal/shard
	$(GO) test -run '^$$' -fuzz '^FuzzParseParent$$' -fuzztime=5s ./internal/telemetry/trace

# bench/ is a module of its own (it imports this one through a replace),
# so `go build ./... && go test ./...` here never compiles it: vet and
# test it against the packages as they are in this checkout.
bench-e2e-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Measure the tile-plan HZ kernels against the per-sample reference path
# and refresh BENCH_readpath.json (see README.md for how to read it),
# then print the standard Go benchmark tables.
bench-readpath:
	NSDF_BENCH_READPATH_ITERS=5 NSDF_BENCH_READPATH_OUT=$(CURDIR)/BENCH_readpath.json \
		$(GO) test ./internal/idx -run '^TestBenchReadpathEmit$$' -count=1 -v
	$(GO) test ./internal/idx -run '^$$' -bench 'BenchmarkReadBoxKernel|BenchmarkWriteGridKernel' -benchmem -count=1

# One-iteration smoke of the same harness, writing to a temp file: keeps
# the benchmark code compiling and running under `make check` without
# touching the committed BENCH_readpath.json.
bench-readpath-smoke:
	NSDF_BENCH_READPATH_ITERS=1 $(GO) test ./internal/idx -run '^TestBenchReadpathEmit$$' -count=1

# Measure what an active trace costs the warm-cache ReadBox path AND a
# sharded read across HTTP store processes (header propagation, remote
# span records), refreshing both sections of BENCH_trace_overhead.json.
# Fails if either overhead exceeds the 5% budget.
bench-trace:
	NSDF_BENCH_TRACE_ITERS=20 NSDF_BENCH_TRACE_OUT=$(CURDIR)/BENCH_trace_overhead.json \
		$(GO) test ./internal/idx -run '^TestBenchTraceOverheadEmit$$' -count=1 -v
	NSDF_BENCH_TRACE_ITERS=50 NSDF_BENCH_TRACE_OUT=$(CURDIR)/BENCH_trace_overhead.json \
		$(GO) test . -run '^TestBenchTraceDistributedEmit$$' -count=1 -v

# One-iteration smoke of both trace-overhead harnesses (temp output, no
# gating): keeps them compiling and running under `make check`.
bench-trace-smoke:
	NSDF_BENCH_TRACE_ITERS=1 $(GO) test ./internal/idx -run '^TestBenchTraceOverheadEmit$$' -count=1
	NSDF_BENCH_TRACE_ITERS=1 $(GO) test . -run '^TestBenchTraceDistributedEmit$$' -count=1

# Measure the tiered block cache — zero-copy hit path (gated at 0
# allocs/op), fetch coalescing under concurrent readers, TinyLFU
# admission vs plain LRU — and refresh BENCH_cache.json, then print the
# stock benchmark tables.
bench-cache:
	NSDF_BENCH_CACHE_ITERS=5 NSDF_BENCH_CACHE_OUT=$(CURDIR)/BENCH_cache.json \
		$(GO) test ./internal/cache -run '^TestBenchCacheEmit$$' -count=1 -v
	$(GO) test ./internal/cache -run '^$$' -bench 'BenchmarkGetHit|BenchmarkPutEvict' -benchmem -count=1

# One-iteration smoke of the cache harness (temp output): keeps it
# compiling, running, and allocation-free under `make check`.
bench-cache-smoke:
	NSDF_BENCH_CACHE_ITERS=1 $(GO) test ./internal/cache -run '^TestBenchCacheEmit$$' -count=1

# Measure the sharded block tier — aggregate cold-read throughput at
# N=1/2/4 nodes, hedged-read p99 under a heavy-tail network profile,
# failover under node loss — and refresh BENCH_shard.json. Fails if the
# acceptance gates slip (>=2x scaling at N=4, >=30% p99 cut at <5%
# extra backend gets).
bench-shard:
	NSDF_BENCH_SHARD_ITERS=5 NSDF_BENCH_SHARD_OUT=$(CURDIR)/BENCH_shard.json \
		$(GO) test ./internal/shard -run '^TestBenchShardEmit$$' -count=1 -v -timeout 20m

# Reduced-size smoke of the shard harness (temp output, no gating):
# keeps it compiling and running under `make check`.
bench-shard-smoke:
	NSDF_BENCH_SHARD_ITERS=1 $(GO) test ./internal/shard -run '^TestBenchShardEmit$$' -count=1

# Measure the block codecs on a synthetic float32 terrain raster —
# encoded size, decode latency, max abs error — and refresh
# BENCH_compression.json. Fails if shuffle4-zlib stops beating plain
# zlib by >=15% (the paper's TIFF-to-IDX shrink was ~20%).
bench-compression:
	NSDF_BENCH_COMPRESSION_ITERS=20 NSDF_BENCH_COMPRESSION_OUT=$(CURDIR)/BENCH_compression.json \
		$(GO) test ./internal/compress -run '^TestBenchCompressionEmit$$' -count=1 -v

# One-iteration smoke of the compression harness (temp output, no
# ratio gate): keeps it compiling and running under `make check`.
bench-compression-smoke:
	NSDF_BENCH_COMPRESSION_ITERS=1 $(GO) test ./internal/compress -run '^TestBenchCompressionEmit$$' -count=1

# Measure serving under load — uncontended vs sustainable vs 2x-overload
# latency and goodput with and without admission control, plus loadgen
# completion against a killed backend node — and refresh
# BENCH_serving.json. Fails if admission stops holding admitted p99
# within 2x uncontended p99 and goodput within 90% of sustainable at 2x
# offered load, or if the load generator hangs against a dead backend.
bench-serving:
	NSDF_BENCH_SERVING_ITERS=4 NSDF_BENCH_SERVING_OUT=$(CURDIR)/BENCH_serving.json \
		$(GO) test ./internal/loadgen -run '^TestBenchServingEmit$$' -count=1 -v -timeout 20m

# Reduced-size smoke of the serving harness (temp output, no gating):
# keeps it compiling and running under `make check`.
bench-serving-smoke:
	NSDF_BENCH_SERVING_ITERS=1 $(GO) test ./internal/loadgen -run '^TestBenchServingEmit$$' -count=1

# Measure the analyzer suite itself — module load/type-check cost and
# per-analyzer wall time over every package — and refresh
# BENCH_lint.json. One iteration is one whole run of the suite, so the
# CFGs the three flow-sensitive analyzers share are built once in it;
# the analyzers are single-threaded, so one P is the stable setting.
bench-lint:
	GOMAXPROCS=1 NSDF_BENCH_LINT_ITERS=5 NSDF_BENCH_LINT_OUT=$(CURDIR)/BENCH_lint.json \
		$(GO) test ./internal/lint -run '^TestBenchLintEmit$$' -count=1 -v

# One-iteration smoke of the lint harness (temp output): keeps it
# compiling and running under `make check`.
bench-lint-smoke:
	NSDF_BENCH_LINT_ITERS=1 $(GO) test ./internal/lint -run '^TestBenchLintEmit$$' -count=1

check: build test fmt-check vet race lint fuzz-smoke bench-e2e-check bench-readpath-smoke bench-trace-smoke bench-cache-smoke bench-shard-smoke bench-compression-smoke bench-lint-smoke bench-serving-smoke loc
	@echo "check: all gates passed"
