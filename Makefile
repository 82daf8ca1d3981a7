# Developer entry points. `make check` is the full gate: tier-1
# (build + test, matching ROADMAP.md) plus gofmt, vet, the race detector,
# the nsdf-lint analyzer suite, a 5-second smoke of each of the ten
# fuzz targets (every parser of untrusted bytes has one), the
# cross-package coverage gate (no shipped function tier-1 never runs),
# vet + tests of
# the bench/ module (bench/e2e, the request-path benchmark, which tier-1
# does not compile), a reduced-size smoke of the three harnesses e2e
# does not yet answer (sharded tier, lint, serving), and the non-test
# line count every PR reports its delta against.

GO ?= go

.PHONY: build test fmt-check vet race lint loc cover fuzz-smoke check bench-e2e-check bench-shard bench-shard-smoke bench-lint bench-lint-smoke bench-serving bench-serving-smoke

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
	$(GO) run ./cmd/nsdf-lint ./... ./bench/...

# Non-test, non-testdata Go lines per package directory and in total:
# the figure ROADMAP aim 2 asks every PR to report its delta of. Run it
# on the parent commit and on the change.
loc:
	@for d in internal/* cmd/* bench examples; do \
		printf '%7d %s\n' "$$(find $$d -name '*.go' -not -name '*_test.go' -not -path '*/testdata/*' | xargs cat | wc -l)" $$d; \
	done
	@printf '%7d total\n' "$$(find . -name '*.go' -not -name '*_test.go' -not -path '*/testdata/*' -not -path './.*' | xargs cat | wc -l)"

# Run the tier-1 suite once with cross-package coverage, print the
# total, and fail on any function outside cmd/*/main.go and
# examples/*/main.go that runs no statement: test it or delete it
# (ROADMAP 20). Plain `go test` has no -coverpkg, so this cannot be
# part of tier-1 itself.
cover:
	@mkdir -p .cover
	$(GO) test -coverpkg=./... -coverprofile=.cover/profile ./... > .cover/test.log || { cat .cover/test.log; exit 1; }
	$(GO) tool cover -func=.cover/profile > .cover/func
	@tail -1 .cover/func
	@awk '{ file = $$1; sub(/^nsdfgo\//, "", file); sub(/:.*/, "", file) } \
		$$1 != "total:" && $$3 == "0.0%" && file !~ /^(cmd|examples)\/[^\/]+\/main\.go$$/ { print file ":" $$2 ": runs no statement in tier-1: test it or delete it"; bad = 1 } \
		END { exit bad }' .cover/func

# Briefly run each native fuzz target so the fuzz harnesses stay
# compiling and the properties hold on fresh coverage-guided inputs.
# Minimisation of each new input is capped at 100 runs: uncapped, it
# may take 60 s per input, so a 5 s smoke of a slow target spent its
# budget minimising and ran a few dozen inputs.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzSniff$$' -fuzztime=5s -fuzzminimizetime=100x ./internal/convert
	$(GO) test -run '^$$' -fuzz '^FuzzHZRuns$$' -fuzztime=5s -fuzzminimizetime=100x ./internal/hz
	$(GO) test -run '^$$' -fuzz '^FuzzTilePlan$$' -fuzztime=5s -fuzzminimizetime=100x ./internal/hz
	$(GO) test -run '^$$' -fuzz '^FuzzCodecDecode$$' -fuzztime=5s -fuzzminimizetime=100x ./internal/compress
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBytes$$' -fuzztime=5s -fuzzminimizetime=100x ./internal/tiff
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBytes$$' -fuzztime=5s -fuzzminimizetime=100x ./internal/netcdf
	$(GO) test -run '^$$' -fuzz '^FuzzMetaUnmarshalText$$' -fuzztime=5s -fuzzminimizetime=100x ./internal/idx
	$(GO) test -run '^$$' -fuzz '^FuzzParsePeers$$' -fuzztime=5s -fuzzminimizetime=100x ./internal/shard
	$(GO) test -run '^$$' -fuzz '^FuzzParseParent$$' -fuzztime=5s -fuzzminimizetime=100x ./internal/telemetry/trace
	$(GO) test -run '^$$' -fuzz '^FuzzDashboardQuery$$' -fuzztime=5s -fuzzminimizetime=100x ./internal/dashboard

# bench/ is a module of its own (it imports this one through a replace),
# so `go build ./... && go test ./...` here never compiles it: vet and
# test it against the packages as they are in this checkout.
bench-e2e-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

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
# BENCH_lint.json. One iteration is one whole run of the suite, so
# lockorder, the one flow-sensitive analyzer, builds each CFG it needs
# once in it; the analyzers are single-threaded, so one P is the stable
# setting.
bench-lint:
	GOMAXPROCS=1 NSDF_BENCH_LINT_ITERS=5 NSDF_BENCH_LINT_OUT=$(CURDIR)/BENCH_lint.json \
		$(GO) test ./internal/lint -run '^TestBenchLintEmit$$' -count=1 -v

# One-iteration smoke of the lint harness (temp output): keeps it
# compiling and running under `make check`.
bench-lint-smoke:
	NSDF_BENCH_LINT_ITERS=1 $(GO) test ./internal/lint -run '^TestBenchLintEmit$$' -count=1

check: build test fmt-check vet race lint cover fuzz-smoke bench-e2e-check bench-shard-smoke bench-lint-smoke bench-serving-smoke loc
	@echo "check: all gates passed"
