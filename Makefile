GO ?= go

.PHONY: all build test race race-hot race-obs vet lint lint-vet lint-audit verify bench-record bench-smoke fuzz-smoke bench-serve wirebench-test

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The engine/session concurrency layer is only considered verified under
# the race detector; `verify` is the gate CI and pre-commit should run.
race:
	$(GO) test -race ./...

# Focused race pass over the packages with lock-free hot paths (the obs
# atomics and the engine's snapshot/cache machinery) — cheap enough to
# run on every edit, unlike the full `race` sweep.
race-hot:
	$(GO) test -race ./internal/obs ./internal/engine

# vet also fails on unformatted files: gofmt -l prints offenders, and
# any output is an error.
vet:
	$(GO) vet ./...
	@fmtout="$$(gofmt -l .)"; if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi

# Domain-aware analyzers (internal/analysis) run via the wdmlint driver.
# Exit 1 means findings; fix them or justify with //lint:ignore.
lint:
	$(GO) run ./cmd/wdmlint ./...

# Same suite driven by `go vet -vettool`, which gives per-package result
# caching and vet's diagnostic plumbing. Not equivalent to `lint`: vet
# runs one package per process, so callee summaries from other packages
# fall back to the analyzers' conservative defaults and metric-name
# uniqueness is checked only within each package. `lint` is the
# complete run; this is the cached one.
lint-vet:
	$(GO) build -o bin/wdmlint ./cmd/wdmlint
	$(GO) vet -vettool=bin/wdmlint ./...

# Suppression audit: every //lint:ignore must carry a known analyzer
# and a written reason, and the total count is pinned so it can only
# grow deliberately (bump LINT_SUPPRESSIONS_MAX in the same commit that
# adds a justified directive).
LINT_SUPPRESSIONS_MAX ?= 6
lint-audit:
	$(GO) run ./cmd/wdmlint -audit -audit-max $(LINT_SUPPRESSIONS_MAX)

verify: build vet test race-hot race

# The wire benchmark (wirebench/) is a separate module that compiles
# against internal/engine, internal/serve and internal/core, so
# `go test ./...` at the root never builds it: vet and test it on its
# own so an API change that breaks the benchmark fails here.
wirebench-test:
	cd wirebench && $(GO) vet ./... && $(GO) test ./...

# Regenerate the committed in-process benchmark records
# (BENCH_{engine,obs,churn,goal}.json) and gate each one's claim; the
# bounds are constants in internal/bench next to each record's Gate.
bench-record:
	$(GO) run ./cmd/wdmbench -record engine,obs,churn,goal

# Focused race pass over the span-tracing/self-observation layer and
# its TCP consumer — the flight recorder's and metric history's
# lock-free rings, health evaluation, bundle capture (including the
# overload e2e that drives health to failing) and the serve request
# lifecycle are only considered verified under the race detector, run
# twice to vary goroutine interleavings.
race-obs:
	$(GO) test -race -count=2 ./internal/obs ./internal/serve

# Fast benchmark smoke pass for CI: runs the route / mutation / Dijkstra
# benchmarks briefly with -benchmem so an accidental allocation or a
# gross regression on the hot paths is visible in the job log without
# paying for a full measurement run. Not a stable-numbers benchmark.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Route|AllocateRelease|Dijkstra|Bidirectional|AStar|Sampler|History' \
		-benchtime 100ms -benchmem \
		./internal/graph ./internal/core ./internal/engine ./internal/obs

# Short fuzzing pass over every fuzz target (go test -fuzz takes one
# target per invocation, hence the list). 30s each is a smoke budget:
# it replays the corpus and gives the generator a brief run, catching
# shallow parser/engine regressions without a dedicated fuzz farm.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzProtocolParse$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzDeltaChurn$$' -fuzztime $(FUZZTIME) ./internal/engine
	$(GO) test -run '^$$' -fuzz '^FuzzGoalDirected$$' -fuzztime $(FUZZTIME) ./internal/engine
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalNetwork$$' -fuzztime $(FUZZTIME) ./internal/wdm
	$(GO) test -run '^$$' -fuzz '^FuzzEngineAllocateRelease$$' -fuzztime $(FUZZTIME) ./internal/wdm
	$(GO) test -run '^$$' -fuzz '^FuzzSpanEncode$$' -fuzztime $(FUZZTIME) ./internal/obs

# Regenerate the committed TCP service benchmark record: build wdmserve
# and wdmload, soak a live server (64 connections, 50k requests, an
# undersized admission queue so shedding is exercised), drain it with
# SIGTERM, and leave the load generator's report in BENCH_serve.json.
bench-serve:
	./scripts/bench_serve.sh
