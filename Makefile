# Targets mirror the CI jobs in .github/workflows/ci.yml.

GO ?= go

.PHONY: all build test floor race bench benchgate benchmulti fuzz smoke atlas-smoke fmt vet check

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The exhaustive conformance floor at n = 6 (every connected labeled
# 6-vertex graph, every model; `make test` covers n <= 5).
floor:
	$(GO) test -run TestConformanceFloor ./internal/game -floor.n=6

race:
	$(GO) test -race ./internal/...

# Three iterations per benchmark (1x single samples proved too noisy to
# gate on — micro benches swing ±80% run to run on a busy host), teed
# through cmd/benchjson into a JSON artifact (benchmark → ns/op, allocs,
# GOMAXPROCS, host fingerprint) so numbers are comparable across PRs.
# benchjson fails on FAIL lines or an empty stream. The CI benchmark smoke
# keeps 1x: it proves the pipeline, not the numbers. The artifact is named
# after the change it records — `make bench PR=<n>` writes BENCH_<n>.json
# — and an existing artifact is never overwritten.
bench:
	@if [ -z "$(PR)" ]; then echo "usage: make bench PR=<n> (writes BENCH_<n>.json)" >&2; exit 2; fi
	@if [ -e "BENCH_$(PR).json" ]; then echo "BENCH_$(PR).json exists; refusing to overwrite it" >&2; exit 1; fi
	$(GO) test -run=NONE -bench=. -benchtime=3x -benchmem ./... | $(GO) run ./cmd/benchjson -o BENCH_$(PR).json

# Bench gate: diff the two most recent checked-in artifacts. Same-host
# artifacts are compared at a 15% regression threshold (deterministic
# allocs/op gate hard, single-sample ns/op gates at 4×); artifacts from
# different hosts skip gracefully.
benchgate:
	@arts="$$(ls BENCH_*.json | sort -V | tail -2)"; \
	old="$$(echo "$$arts" | head -1)"; new="$$(echo "$$arts" | tail -1)"; \
	if [ "$$old" = "$$new" ]; then echo "benchgate: single artifact $$old, nothing to diff"; exit 0; fi; \
	$(GO) run ./cmd/benchjson -diff -threshold 15 "$$old" "$$new"

# Multicore sweep: the BenchmarkMulti* targets size their workers from
# GOMAXPROCS, so -cpu produces scaling datapoints for the three parallel
# datapaths (sharded scan engine, batched cross-agent sweep, row-cache
# Sync) at 1/2/4/8 workers. Informational — numbers land in the job log,
# not in the BENCH artifact, because per-host core counts vary.
benchmulti:
	$(GO) test -run=NONE -bench='^BenchmarkMulti' -benchtime=3x -benchmem -cpu=1,2,4,8 .

# Bounded fuzz of the incremental pricing session's swap mutation path, the
# session RowCache's invalidation rules against fresh BFS ground truth, the
# greedy model's add/delete/swap apply/undo path, the budget model's
# feasibility-guarded swap apply/undo path, the unified scan engine's
# witnesses against the naive sequential enumeration, the batched
# cross-agent sweep against the per-agent sweep, and the atlas corpus
# format (sparse6 round-trip stability + iso dedupe-key soundness).
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzApplySwap -fuzztime=30s ./internal/pricing
	$(GO) test -run=NONE -fuzz=FuzzRowCache -fuzztime=30s ./internal/pricing
	$(GO) test -run=NONE -fuzz=FuzzGreedyApply -fuzztime=30s ./internal/game
	$(GO) test -run=NONE -fuzz=FuzzBudgetApply -fuzztime=30s ./internal/game
	$(GO) test -run=NONE -fuzz=FuzzScanEngine -fuzztime=30s ./internal/game
	$(GO) test -run=NONE -fuzz=FuzzBatchedSweep -fuzztime=30s ./internal/game
	$(GO) test -run=NONE -fuzz=FuzzAtlasRoundTrip -fuzztime=30s ./internal/atlas

# End-to-end CLI smoke of every deviation model (mirrors the CI step),
# then the service load harness: k concurrent clients replay the mixed
# corpus against an in-process server and every verdict is compared
# bit-for-bit with the direct engine path. The -dup pass fires all clients
# simultaneously per scenario and fails unless the coalescer holds
# certifications to one per distinct key. The streamed dynamics run
# exercises the NDJSON move feed end to end.
smoke:
	$(GO) run ./cmd/bncg dynamics -n 24 -model swap -policy first -workers 2
	$(GO) run ./cmd/bncg dynamics -n 24 -model greedy -edgecost 3 -policy best -workers 2
	$(GO) run ./cmd/bncg dynamics -n 24 -model interests -policy random -seed 3 -workers 2
	$(GO) run ./cmd/bncg dynamics -n 24 -model budget -budget 3 -policy best -workers 2
	$(GO) run ./cmd/bncg dynamics -n 24 -model 2nb -policy first -seed 2 -workers 2
	$(GO) run ./cmd/bncg dynamics -n 24 -model swap -policy best -stream -workers 2
	$(GO) run ./cmd/bncg load -k 8 -rounds 2
	$(GO) run ./cmd/bncg load -k 8 -dup

# Atlas smoke (mirrors the CI step): a quick deterministic hunt into a
# scratch directory must itself pass the bit-for-bit verify gate, and the
# checked-in corpus must re-certify and render its structure tables.
atlas-smoke:
	rm -rf /tmp/atlas_smoke
	$(GO) run ./cmd/bncg atlas hunt -dir /tmp/atlas_smoke -quick -seed 1
	$(GO) run ./cmd/bncg atlas verify -dir /tmp/atlas_smoke
	$(GO) run ./cmd/bncg atlas verify -dir testdata/atlas
	$(GO) run ./cmd/bncg atlas stats -dir testdata/atlas

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

check: fmt vet build test bench smoke
