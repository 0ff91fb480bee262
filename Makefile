# Stdlib-only Go module; no code generation, no external tools.

GO ?= go

.PHONY: build vet fmt-check lint test race race-server bench bench-module fuzz serve smoke-server smoke-restart smoke-precision chaos-smoke check ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting gate: gofmt must be a no-op over the tree. staticcheck is
# unavailable offline, so the static gate is go vet + this.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# deadlint smoke over the example programs. Each example is a complete
# program with its own main(), so they are linted one file at a time.
# deadlint exits 0 even when it reports findings; only compile errors,
# degraded runs, and usage mistakes fail the target.
lint: vet fmt-check
	$(GO) build -o bin/deadlint ./cmd/deadlint
	for f in examples/mcc/*.mcc; do bin/deadlint $$f || exit 1; done

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Focused race pass over the concurrency-heavy layers (the server's
# singleflight/admission paths and the engine's session cache).
race-server:
	$(GO) test -race ./internal/server/... ./internal/engine/...

# Run the analysis daemon locally (see cmd/deadmemd for flags).
ADDR ?= 127.0.0.1:8100
serve:
	$(GO) build -o bin/deadmemd ./cmd/deadmemd
	bin/deadmemd -addr $(ADDR)

# End-to-end smoke: start deadmemd, probe /healthz, and diff /v1/analyze
# and /v1/lint responses against deadmem/deadlint stdout byte-for-byte.
smoke-server:
	sh scripts/smoke_server.sh

# Warm-restart smoke: persist an artifact, SIGKILL the daemon, restart
# over the same -persist-dir, and verify the response is served from
# disk byte-identically with zero recompiles.
smoke-restart:
	sh scripts/smoke_restart.sh

# Precision smoke: paperbench -precision -timings (the frontier sweeps
# all three liveness tiers in one session), then deadlint at each tier
# over the chained example asserting paper <= flow <= heap monotonicity.
smoke-precision:
	sh scripts/smoke_precision.sh

# Chaos soak under the race detector: faulty disk + faulty network,
# abrupt in-test kill and restart, byte-identity asserted throughout
# (see internal/server/chaos_soak_test.go).
chaos-smoke:
	$(GO) test -race -run TestChaosSoak -v ./internal/server/

bench:
	$(GO) test -bench=. -benchmem

# The benchmark in perfbench/ is a nested module that `go build ./...`
# at the root skips; vet and test it so an internal API change cannot
# break it unnoticed.
bench-module:
	cd perfbench && $(GO) vet . && $(GO) test .

# Short fuzzing smoke over each target (the checked-in corpus under
# testdata/fuzz/ is replayed by plain `make test` already).
FUZZTIME ?= 20s
fuzz:
	$(GO) test -fuzz=FuzzCompile -fuzztime=$(FUZZTIME) .
	$(GO) test -fuzz=FuzzAnalyze -fuzztime=$(FUZZTIME) .
	$(GO) test -fuzz=FuzzStripRoundTrip -fuzztime=$(FUZZTIME) .
	$(GO) test -fuzz=FuzzCFG -fuzztime=$(FUZZTIME) .
	$(GO) test -fuzz=FuzzVMDifferential -fuzztime=$(FUZZTIME) .

# The quick local gate: build + static checks + tests. Slower CI-only
# passes (race soaks, server smokes) stay out.
check: build vet fmt-check test bench-module

# What CI runs (see .github/workflows/ci.yml).
ci: build vet race race-server bench-module lint smoke-server smoke-restart smoke-precision chaos-smoke
