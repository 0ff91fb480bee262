# Stdlib-only Go module; no code generation, no external tools.

GO ?= go

.PHONY: build vet fmt-check lint test race race-server bench bench-smoke bench-module fuzz serve smoke-server smoke-restart smoke-precision smoke-examples chaos-smoke check ci

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
# singleflight/admission paths, the engine's session and result caches,
# the lint pass's lazily built write summaries, which its workers
# share, and the liveness shards, whose tests vary the worker count).
race-server:
	$(GO) test -race ./internal/server/... ./internal/engine/... ./internal/lint/... ./internal/deadmember/...

# Run the analysis daemon locally (see cmd/deadmemd for flags).
ADDR ?= 127.0.0.1:8100
serve:
	$(GO) build -o bin/deadmemd ./cmd/deadmemd
	bin/deadmemd -addr $(ADDR)

# End-to-end smoke: start deadmemd, probe /healthz, and diff /v1/strip,
# /v1/analyze and /v1/lint responses against deadstrip/deadmem/deadlint
# stdout byte-for-byte.
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

# Examples smoke: go run each Go example and diff its stdout and exit
# code against examples/<name>/expected.txt.
smoke-examples:
	sh scripts/smoke_examples.sh

# Chaos soak under the race detector: faulty disk under the persist
# store, abrupt in-test kill and restart, byte-identity and zero failed
# requests against a live server asserted throughout (see
# internal/server/chaos_soak_test.go).
chaos-smoke:
	$(GO) test -race -run TestChaosSoak -v ./internal/server/

bench:
	$(GO) test -bench=. -benchmem

# Run every benchmark once. `go test ./...` compiles benchmarks but runs
# none, so a benchmark that panics would go unnoticed until timed.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The benchmark in perfbench/ is a nested module that `go build ./...`
# at the root skips; vet and test it so an internal API change cannot
# break it unnoticed.
bench-module:
	cd perfbench && $(GO) vet . && $(GO) test .

# Short fuzzing smoke over each target (the checked-in corpus under
# testdata/fuzz/ is replayed by plain `make test` already). Each new
# coverage input is minimized for at most 1s: at the default of 60s the
# workers spend a short run minimizing and barely execute inputs.
FUZZTIME ?= 20s
fuzz:
	$(GO) test -fuzz=FuzzCompile -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s .
	$(GO) test -fuzz=FuzzAnalyze -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s .
	$(GO) test -fuzz=FuzzStripRoundTrip -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s .
	$(GO) test -fuzz=FuzzCFG -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s .
	$(GO) test -fuzz=FuzzVMDifferential -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s .
	$(GO) test -fuzz=FuzzStripBehaviour -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s .
	$(GO) test -fuzz=FuzzLexer -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/lexer

# The quick local gate: build + static checks + tests. Slower CI-only
# passes (race soaks, server smokes) stay out.
check: build vet fmt-check test bench-module

# What CI runs (see .github/workflows/ci.yml).
ci: build vet race race-server bench-smoke bench-module lint smoke-server smoke-restart smoke-precision smoke-examples chaos-smoke
