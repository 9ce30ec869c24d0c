GO ?= go

.PHONY: build test race vet fmt perfbench verify-smoke check bench bench-diff bench-record explain trend cost bench-point paperbench microbench cec sim clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-enabled run of the packages with concurrency (obs registry, sparse
# solver state, charlib worker pool, cec fallback miter workers, the mapper's
# shared match-library memo) plus the rest of the tree.
race:
	$(GO) test -race ./internal/obs/... ./internal/linalg/... ./internal/spice/... ./internal/charlib/... ./internal/synth/... ./internal/cec/... ./internal/qor/... ./internal/gsim/... ./internal/aig/... ./internal/sat/... ./internal/mapper/...

# Equivalence-checker suite under the race detector (the parallel fallback
# miter is the flow's most concurrent code path).
cec:
	$(GO) test -race -v ./internal/cec/...

# Gate-level simulator suite (docs/GSIM.md) plus a quick end-to-end run:
# synthesize an EPFL benchmark, simulate it event-driven with annotated
# delays, and report measured-activity power.
sim:
	$(GO) test ./internal/gsim/...
	$(GO) run ./cmd/cryosim -vectors 256 -power epfl:ctrl

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# The benchmark program is its own module (perfbench/go.mod), so the root
# build never compiles it: vet and test it here so an API break in the flow
# shows up before the benchmark runs (about 30 s).
perfbench:
	cd perfbench && $(GO) vet . && $(GO) test .

# Formal signoff smoke (docs/CEC.md): cryosynth -verify proves pre-opt ≡
# post-opt ≡ mapped netlist for every scenario of four small circuits on the
# synthetic library, and exits non-zero on any failure (about 1 s).
verify-smoke:
	$(GO) run ./cmd/cryosynth -testlib -verify -fig3=false -circuits ctrl,dec,int2float,router

# The CI gate: everything that must be green before merging.
check: build vet fmt test race perfbench verify-smoke
	@echo "check: OK"

# Exact QoR gate (docs/QOR.md). `make bench` records a fresh smoke run to
# build/qor-<stamp>.json and gates it against the committed baseline;
# `make bench-record` refreshes the baseline after an intentional QoR
# change; `make bench-diff` compares the two most recent build/qor-*.json
# recordings without running the flow. Every run writes its journal (ending
# in the run summary `make trend` reads: QoR, stage wall times, engine
# counters) to its own file under BENCH_JOURNALS.
BENCH_PROFILE  ?= smoke
BENCH_REPEAT   ?= 2
BENCH_JOURNALS ?= bench/journals
BENCH_STAMP    := $(shell date -u +%Y%m%dT%H%M%SZ)

bench:
	@mkdir -p $(BENCH_JOURNALS)
	$(GO) run ./cmd/cryobench -profile $(BENCH_PROFILE) -repeat $(BENCH_REPEAT) \
		-journal $(BENCH_JOURNALS)/bench-$(BENCH_STAMP).jsonl \
		-out build/qor-$(BENCH_STAMP).json -baseline bench/baseline-$(BENCH_PROFILE).json

bench-record:
	@mkdir -p $(BENCH_JOURNALS)
	$(GO) run ./cmd/cryobench -profile $(BENCH_PROFILE) -repeat $(BENCH_REPEAT) \
		-journal $(BENCH_JOURNALS)/record-$(BENCH_STAMP).jsonl \
		-out bench/baseline-$(BENCH_PROFILE).json

bench-diff:
	@set -- $$(ls -t build/qor-*.json 2>/dev/null | head -2); \
	if [ $$# -lt 2 ]; then echo "need two build/qor-*.json recordings (run make bench twice)"; exit 1; fi; \
	echo "diffing $$2 (base) vs $$1 (current)"; \
	$(GO) run ./cmd/cryobench -diff -explain "$$2" "$$1"

# Attribution self-diff smoke (docs/EXPLAIN.md): diffing the committed
# baseline against itself must attribute zero delta.
explain:
	@mkdir -p build
	$(GO) run ./cmd/cryobench -diff -explain \
		-explain-json build/self-explain.json \
		bench/baseline-$(BENCH_PROFILE).json bench/baseline-$(BENCH_PROFILE).json
	@grep -q '"zero_delta": true' build/self-explain.json && \
		echo "explain: self-diff is zero-delta, OK"

# Run-over-run drift table over the run journals under BENCH_JOURNALS
# (docs/OBSERVABILITY.md). TREND_GLOB subsets the metrics.
TREND_LAST ?= 8
TREND_GLOB ?= *

trend:
	$(GO) run ./cmd/cryoobs trend -last $(TREND_LAST) -glob '$(TREND_GLOB)' \
		$(BENCH_JOURNALS)/*.jsonl

# Per-span CPU of a smoke bench run (docs/OBSERVABILITY.md): a pprof
# profile labelled span=<span path>, summarised per span path and per
# function.
cost:
	@mkdir -p build
	$(GO) run ./cmd/cryobench -profile $(BENCH_PROFILE) -repeat 1 \
		-out build/qor-$(BENCH_STAMP).json -cost build/bench-cost.pprof
	$(GO) tool pprof -tags build/bench-cost.pprof
	$(GO) tool pprof -top -nodecount 25 build/bench-cost.pprof

# One committed benchmark point: BENCH_$(N).json at the repository root holds
# every perfbench workload's untraced and traced result objects at seed 201,
# 25 s, plus each run's host-noise record (a few minutes, one run at a time).
bench-point:
	@if [ -z "$(N)" ]; then echo "usage: make bench-point N=<n>"; exit 1; fi
	python3 bench/bench_point.py $(N)

# Go microbenchmarks (the paper-benchmark target predating cryobench).
paperbench:
	$(GO) test -bench . -benchtime 1x -run xxx .

# Device-evaluation, linear-solver and op-point microbenchmarks
# (Conductances at 300 K and 10 K; dense vs sparse vs refactor).
microbench:
	$(GO) test ./internal/device ./internal/linalg ./internal/spice -run xxx -bench . -benchmem -benchtime 100x

clean:
	rm -rf build
