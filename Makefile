GO ?= go

.PHONY: build test race vet fmt perfbench verify-smoke char-smoke cli-smoke check bench bench-diff bench-record explain cost bench-point bench-ab paperbench microbench cec cec-hard sim loc clean build/cryobench

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

# The equivalence checks the signoff workload leaves out (docs/CEC.md,
# "Hard checks"): scaled sqrt and priority mapped on the 10 K testlib as
# signoff maps its circuits, each proven by cec.Check with one worker and
# seed 201, one line of wall time and Stats per check (about 2.5 min).
cec-hard:
	$(GO) run ./bench/cechard

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

# Formal signoff smoke (docs/CEC.md, run by CI): cryosynth -verify proves
# pre-opt ≡ post-opt ≡ mapped netlist for every scenario of eight circuits
# on the synthetic library, and exits non-zero on any failure (about 1 s).
# log2, max, priority and square are there because Resub merges nodes in
# their c2rs, so a wrong merge fails this gate.
verify-smoke:
	$(GO) run ./cmd/cryosynth -testlib -verify -fig3=false -circuits ctrl,dec,int2float,router,log2,max,priority,square

# Characterization CLI smoke (docs/SPICE.md): cryochar characterizes four
# cells at 10 K into a fresh cache, then reruns; the rerun must be a cache
# hit (under 1 s per run).
char-smoke:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	run() { $(GO) run ./cmd/cryochar -temp 10 -limit 4 -cache "$$dir" -o "$$dir/smoke.lib" -metrics - 2>&1; }; \
	out="$$(run)" || { echo "$$out"; exit 1; }; \
	out="$$(run)" || { echo "$$out"; exit 1; }; \
	if ! echo "$$out" | grep -qx 'charlib_cache_hits 1'; then \
		echo "$$out"; echo "char-smoke: the rerun did not hit the cache"; exit 1; \
	fi; \
	echo "char-smoke: OK (rerun hit the cache)"

# AIG and equivalence CLI smoke (docs/CEC.md): cryoaig runs the flow's
# c2rs and lutpack passes on int2float and proves the result EQUAL; cryocec
# proves the stored int2float netlist EQUAL (exit 0), then finds a one-gate
# mutant of it NOT-EQUAL (exit 1) with the counterexample confirmed by
# gate-level replay (a few seconds).
cli-smoke:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir" ./cmd/cryoaig ./cmd/cryocec || exit 1; \
	out="$$("$$dir/cryoaig" -circuit int2float -script "c2rs;lutpack" -verify 2>&1)" || { echo "$$out"; exit 1; }; \
	echo "$$out" | grep -q '^verified: ' || { echo "$$out"; echo "cli-smoke: cryoaig did not verify EQUAL"; exit 1; }; \
	gunzip -c internal/gsim/testdata/int2float.v.gz > "$$dir/int2float.v"; \
	out="$$("$$dir/cryocec" epfl:int2float "$$dir/int2float.v" 2>&1)" || { echo "$$out"; echo "cli-smoke: cryocec on the stored netlist did not exit 0"; exit 1; }; \
	sed 's/NOR2x1 g5 /NAND2x1 g5 /' "$$dir/int2float.v" > "$$dir/mutant.v"; \
	out="$$("$$dir/cryocec" epfl:int2float "$$dir/mutant.v" 2>&1)"; code=$$?; \
	if [ $$code -ne 1 ] || ! echo "$$out" | grep -q '^replay: CONFIRMED'; then \
		echo "$$out"; echo "cli-smoke: cryocec on the mutant exited $$code, want 1 and a confirmed replay"; exit 1; \
	fi; \
	echo "cli-smoke: OK (cryoaig EQUAL, cryocec EQUAL and NOT-EQUAL with a confirmed replay)"

# The CI gate: everything that must be green before merging.
check: build vet fmt test race perfbench verify-smoke char-smoke cli-smoke
	@echo "check: OK"

# Exact QoR gate (docs/QOR.md). `make bench` records a fresh smoke run to
# build/qor-<stamp>.json and gates it against the committed baseline;
# `make bench-record` refreshes the baseline after an intentional QoR
# change; `make bench-diff` compares the two most recent build/qor-*.json
# recordings without running the flow.
BENCH_PROFILE ?= smoke
BENCH_REPEAT  ?= 2
BENCH_STAMP   := $(shell date -u +%Y%m%dT%H%M%SZ)

# The binary is built with go build (not go run) so a -journal run's
# run.start records the VCS revision it was built from; phony, so it is
# rebuilt (from the go build cache) on every run.
build/cryobench:
	$(GO) build -o $@ ./cmd/cryobench

bench: build/cryobench
	build/cryobench -profile $(BENCH_PROFILE) -repeat $(BENCH_REPEAT) \
		-out build/qor-$(BENCH_STAMP).json -baseline bench/baseline-$(BENCH_PROFILE).json

bench-record: build/cryobench
	build/cryobench -profile $(BENCH_PROFILE) -repeat $(BENCH_REPEAT) \
		-out bench/baseline-$(BENCH_PROFILE).json

bench-diff:
	@set -- $$(ls -t build/qor-*.json 2>/dev/null | head -2); \
	if [ $$# -lt 2 ]; then echo "need two build/qor-*.json recordings (run make bench twice)"; exit 1; fi; \
	echo "diffing $$2 (base) vs $$1 (current)"; \
	$(GO) run ./cmd/cryobench -diff "$$2" "$$1"

# Attribution self-diff smoke (docs/EXPLAIN.md): diffing a baseline
# (BASELINE, default the committed one) against itself must attribute zero
# delta.
BASELINE ?= bench/baseline-$(BENCH_PROFILE).json
explain:
	@mkdir -p build
	$(GO) run ./cmd/cryobench -diff \
		-explain-json build/self-explain.json \
		$(BASELINE) $(BASELINE)
	@grep -q '"zero_delta": true' build/self-explain.json && \
		echo "explain: self-diff is zero-delta, OK"

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

# Paired A/B timing (bench/bench_ab.py): perfbench built at BASE and at the
# working tree, run as PAIRS interleaved pairs with --trace 0 at SEED; prints
# each end-to-end metric's medians, median ratio and sign-test interval, then
# the work counts of one --trace 1 run per side, each marked same or CHANGED.
WORKLOAD ?= signoff
PAIRS    ?= 10
SEED     ?= 201
bench-ab:
	@if [ -z "$(BASE)" ]; then echo "usage: make bench-ab BASE=<rev> [WORKLOAD=<w>] [PAIRS=<n>] [SEED=<s>]"; exit 1; fi
	python3 bench/bench_ab.py --base $(BASE) --workload $(WORKLOAD) --pairs $(PAIRS) --seed $(SEED)

# Go microbenchmarks (the paper-benchmark target predating cryobench).
paperbench:
	$(GO) test -bench . -benchtime 1x -run xxx .

# Device-evaluation, linear-solver and op-point microbenchmarks
# (Conductances at 300 K and 10 K; dense vs sparse vs refactor), seconds per
# characterized cell (QuickConfig AOI22x1 and DFFx1 at 300 K and 10 K, one
# worker), the synthesis passes on an EPFL circuit, cut enumeration on
# scaled square and sin, standard-cell mapping of balanced square and of the
# scaled multiplier (7,740 gates, signoff's largest set-up map), the
# synthesis front (synth.Prepare on adder, square and
# mem_ctrl, s/op), one synth_fig3 item (synth.Compare on its seven
# circuits, 10 K testlib, s/op), netlist.Compile on a stored mapped
# netlist (allocs/op),
# the event-driven gate-level simulator on annotated signoff netlists
# (ns/event), the SAT solver on miter and random 3-SAT streams, and
# the equivalence check of a stored signoff netlist.
microbench:
	$(GO) test ./internal/device ./internal/linalg ./internal/spice ./internal/charlib ./internal/aig ./internal/mapper ./internal/synth ./internal/netlist ./internal/gsim ./internal/sat ./internal/cec -run xxx -bench . -benchmem -benchtime 100x

# Non-test Go lines outside perfbench/: the code-size figure simplicity
# changes quote. Counts tracked and untracked files, not ignored ones.
loc:
	@git ls-files -co --exclude-standard '*.go' | grep -v -e '_test\.go$$' -e '^perfbench/' | xargs cat | wc -l

clean:
	rm -rf build
