# Offline, stdlib-only Go module — every target works without network,
# except `make lint`, which fetches its pinned analyzer (see below).

GO ?= go
PAIRS ?= 10

.PHONY: all build test test-noasm bench-test bench-ab race check bench benchall vet fmt fmt-check check-orphans bench-smoke fuzz-smoke ci ci-cross cluster-integration lint examples experiments clean loc

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The CI test job's second and third passes: the pure-Go reference
# kernels with the assembly compiled out, then the assembled build
# forced to scalar dispatch at runtime (the ANNA_NOSIMD escape hatch).
test-noasm:
	$(GO) test -tags noasm ./...
	ANNA_NOSIMD=1 $(GO) test ./internal/simd/ ./internal/vecmath/ ./internal/pq/ ./internal/ivf/ ./internal/engine/

# The repository benchmark (bench/, see BENCHMARK.json) is a nested
# module, so the root `go test ./...` never enters it; this does.
bench-test:
	cd bench && $(GO) test ./...

# Interleaved A/B of the repository benchmark against a base commit:
# `make bench-ab BASE=HEAD~1 [WORKLOADS="serve_unique serve_zipf"] [PAIRS=10]`
# (scripts/bench_ab.sh: base in a git worktree, alternating base/head
# pairs, then `bench/run.sh compare`).
bench-ab:
	PAIRS=$(PAIRS) bash scripts/bench_ab.sh $(BASE) $(WORKLOADS)

# Code size: non-test Go + assembly lines outside bench/ (the number
# ROADMAP tracks; simplicity changes quote it before and after).
loc:
	@sh scripts/loc.sh

# One race package list: ci-race's, which the CI race job mirrors.
race: ci-race

# Mirrors .github/workflows/ci.yml exactly (same commands, same package
# lists) so a green `make ci` means a green CI run. Keep in sync.
# (Two exceptions stay CI-only: lint resolves staticcheck over the
# network, and the qemu arm64 cross-test job apt-installs its emulator.
# ci-cross covers the same platforms' compile half offline.)
ci: fmt-check check-orphans build vet test test-noasm bench-test ci-cross ci-race cluster-integration fuzz-smoke bench-smoke

# The CI cross-compile job: build and vet every supported platform. The
# assembly is amd64-only, so this proves the fallback dispatch and build
# tags hold everywhere the toolchain targets first-class.
ci-cross:
	GOOS=linux GOARCH=amd64 $(GO) build ./... && GOOS=linux GOARCH=amd64 $(GO) vet ./...
	GOOS=linux GOARCH=arm64 $(GO) build ./... && GOOS=linux GOARCH=arm64 $(GO) vet ./...
	GOOS=linux GOARCH=386 $(GO) build ./... && GOOS=linux GOARCH=386 $(GO) vet ./...
	GOOS=darwin GOARCH=arm64 $(GO) build ./... && GOOS=darwin GOARCH=arm64 $(GO) vet ./...
	GOOS=windows GOARCH=amd64 $(GO) build ./... && GOOS=windows GOARCH=amd64 $(GO) vet ./...

# Static analysis beyond go vet. The only networked target in this file:
# `go run pkg@version` fetches the pinned staticcheck on first use (and
# caches it), so it lives outside `make ci` and runs as a dedicated CI
# job instead.
STATICCHECK_VERSION ?= 2025.1.1
lint:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Every internal package must have a non-test importer besides itself
# (see the script); keeps packages nothing calls from accumulating.
check-orphans:
	sh scripts/check_orphans.sh

# The CI race job: engine worker pool, fused scan path, parallel
# build/ingest pipeline (kmeans, pq batch encoder, ivf build), metrics
# instruments, trace ring, WAL, QoS layer (dynamic batcher, result
# cache, token buckets), HTTP serving layer (the httpx front-door
# skeleton and its contract table, the shadow recall sampler, the
# concurrent /search + /add cache-invalidation test).
.PHONY: ci-race
ci-race:
	$(GO) test -race ./internal/simd/... ./internal/vecmath/... ./internal/engine/... ./internal/ivf/... ./internal/pq/... ./internal/kmeans/... ./internal/metrics/... ./internal/trace/... ./internal/wal/... ./internal/qos/... ./internal/adaptive/... ./internal/wire/... ./internal/httpx/... ./internal/cluster/... ./internal/tsdb/... ./internal/slo/... .

# The CI cluster-integration job: the multi-process fault-injection
# harness (shard processes SIGKILLed mid-load) plus the router's
# degradation chain under injected faults, race-detected.
.PHONY: cluster-integration
cluster-integration:
	$(GO) test -race -v -run 'TestClusterSurvivesShardKill|TestRouterDegradesThroughTimeoutsToBreaker|TestRouterRetriesAbsorbInjected5xx' -count=2 ./internal/cluster/

# The CI fuzz-smoke job: hammer both durable-input decoders — the index
# loader and the WAL reader — with coverage-guided corrupt inputs (a
# finding there means a hostile or damaged file can crash the server),
# then the three assembly-vs-reference differential fuzzers (a finding
# there means a SIMD kernel disagrees with the pure-Go semantics), then
# the wire codec: the frame decoders on hostile bodies (no panic, bounded
# allocation) and the hand-written JSON decoders against encoding/json
# (a finding there means the public API accepts or decodes a body
# differently than it did when encoding/json read it).
fuzz-smoke:
	$(GO) test ./internal/ivf/ -run '^$$' -fuzz=FuzzLoad -fuzztime=30s
	$(GO) test ./internal/wal/ -run '^$$' -fuzz=FuzzLoad -fuzztime=30s
	$(GO) test ./internal/simd/ -run '^$$' -fuzz=FuzzScanADCDiff -fuzztime=30s
	$(GO) test ./internal/simd/ -run '^$$' -fuzz=FuzzFillLUTDiff -fuzztime=30s
	$(GO) test ./internal/simd/ -run '^$$' -fuzz=FuzzDotDiff -fuzztime=30s
	$(GO) test ./internal/wire/ -run '^$$' -fuzz=FuzzDecodeFrame -fuzztime=30s
	$(GO) test ./internal/wire/ -run '^$$' -fuzz=FuzzSearchJSONDiff -fuzztime=30s
	$(GO) test ./internal/wire/ -run '^$$' -fuzz=FuzzAddJSONDiff -fuzztime=30s

# The CI bench-smoke job: small-budget benchmark runs recorded as JSON
# (uploaded as per-PR artifacts in CI; a trajectory, not a gate). The
# build suite gets a smaller budget — one BenchmarkBuild op trains a
# full 100k-vector index. The engine suite's adaptive recall-vs-QPS
# sweep runs at reduced corpus scale (the scalar pass skips it).
bench-smoke:
	$(GO) run ./cmd/benchjson -suite engine -benchtime 10x -sweep-n 6000 -sweep-q 64 -out bench_ci.json
	ANNA_NOSIMD=1 $(GO) run ./cmd/benchjson -suite engine -benchtime 10x -sweep-n 0 -out bench_ci_scalar.json
	$(GO) run ./cmd/benchjson -suite build -benchtime 3x -out bench_ci_build.json
	$(GO) run ./cmd/benchjson -suite serve -benchtime 300ms -out bench_ci_serve.json
	sh scripts/obs_smoke.sh

# Vet plus race-detected tests of the reworked engine worker pool and the
# fused scan path (including the adaptive-effort policies).
check:
	$(GO) vet ./...
	$(GO) test -race ./internal/engine/... ./internal/ivf/... ./internal/adaptive/...

# Run the benchmark suites and record their figures: the CPU
# engine in BENCH_engine.json, the build/ingest pipeline (train + batch
# encode) in BENCH_build.json, and whole-server latency-vs-QPS curves
# (annaload closed-loop sweep, baseline vs batched+cached) in
# BENCH_serve.json.
bench:
	$(GO) run ./cmd/benchjson -suite engine -out BENCH_engine.json
	$(GO) run ./cmd/benchjson -suite build -out BENCH_build.json
	$(GO) run ./cmd/benchjson -suite serve -out BENCH_serve.json

benchall:
	$(GO) test -bench=. -benchmem ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# Run every example end to end.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/recommender
	$(GO) run ./examples/imagesearch
	$(GO) run ./examples/batchserving
	$(GO) run ./examples/serving

# Regenerate the paper's evaluation section (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/annabench -exp all -scale full -out results_full.txt

clean:
	rm -f test_output.txt bench_output.txt
