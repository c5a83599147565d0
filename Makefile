# Developer entry points. CI (.github/workflows/ci.yml) runs lint, test,
# race, smoke, fuzz-smoke, ras-smoke, steady-digests and full-suite.

GO ?= go

.PHONY: all build lint test race fuzz-smoke fmt bench smoke ras-smoke steady-digests full-suite artifact-diff

all: lint test

build:
	$(GO) build ./...

# lint = formatting + vet + the domain-aware tmcclint rules. tmcclint
# type-checks the module once (tmccdebug set) and runs every rule in one
# pass over it: determinism, architectural-constant hygiene, panic
# conventions, obs-sink purity, atomic discipline, memo-key purity, error
# discipline, Time/Cycles unit safety and attribution registration. vet
# runs first, so a tree that does not type-check fails there. -time
# prints the load and rules phases and per-package wall time; the full
# run stays well under 10s.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needs to run on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/tmcclint -time ./...

test:
	$(GO) test ./...

# race is CI's second test pass: the race detector plus the tmccdebug
# check.Invariant audits (ML1/ML2 chunk conservation, free-list
# accounting, one PTB 64B-fit round-trip per warmed PTB). internal/exp
# runs the whole quick suite twice under it, so the default 10m test
# timeout is too tight.
race:
	$(GO) test -race -tags tmccdebug -timeout 30m ./...

fuzz-smoke:
	$(GO) test -run=^$$ -fuzz FuzzBlockCompRoundTrip -fuzztime 10s ./internal/blockcomp/
	$(GO) test -run=^$$ -fuzz FuzzMemDeflateRoundTrip -fuzztime 10s ./internal/memdeflate/
	$(GO) test -run=^$$ -fuzz FuzzEntryRoundTrip -fuzztime 10s ./internal/cte/
	$(GO) test -run=^$$ -fuzz FuzzParseAllow -fuzztime 10s ./internal/lint/
	$(GO) test -run=^$$ -fuzz FuzzParsePlan -fuzztime 10s ./internal/fault/
	$(GO) test -run=^$$ -fuzz FuzzBufferMatchesOracle -fuzztime 10s ./internal/ctecache/
	$(GO) test -run=^$$ -fuzz FuzzCacheMatchesReference -fuzztime 10s ./internal/cache/
	$(GO) test -run=^$$ -fuzz FuzzML2MatchesReference -fuzztime 10s ./internal/freelist/
	$(GO) test -run=^$$ -fuzz FuzzLZMatchesReference -fuzztime 10s ./internal/lz/
	$(GO) test -run=^$$ -fuzz FuzzDecodeMatchesReference -fuzztime 10s ./internal/dram/

fmt:
	gofmt -w .

# bench runs every microbenchmark once (compile/shape check); pass
# BENCHTIME=2s for real numbers. The repo benchmark with its host-time
# ledger is `bash bench/run.sh` (bench/README.md).
BENCHTIME ?= 1x
bench:
	$(GO) test -run '^$$' -bench . -benchtime $(BENCHTIME) ./...

# smoke keeps the CLI-layer checks no Go test covers. The quick suite's
# byte-identity is TestQuickSuiteMatchesGolden's (internal/exp): it pins
# every table to the committed golden digests with every observation
# surface armed, and CI runs it again under -race -tags tmccdebug.
#   1. the per-design access-path microbenchmark, the system-construction
#      one (cold and address-space memo hit) and the per-layer ones (trace
#      generation, cold size-model build, L3 cache, CTE Buffer, DRAM read)
#      compile and complete; the access path and the cold size-model build
#      also run at -cpu 1,2, so a single-CPU regression of the trace-producer pipeline
#      or of the parallel size-model build stays visible, and the
#      producer's determinism, lifecycle and panic tests and the size
#      model's serial-identity test run at -cpu 1,2,4 three times over;
#   2. a race+tmccdebug canneal/TMCC run with a seeded all-faults plan, RAS
#      and every observation output armed completes, and a second run gives
#      identical stdout, stderr and breakdown/timeline/heatmap CSVs;
#   3. tmcctop renders that run's metrics snapshot, led by its RAS status
#      line (the trace writer's spans and counter events are checked by
#      cmd/tmccsim's TestWriteTraceCarriesSpansAndCounters);
#   4. a too-small budget exits nonzero with the capacity diagnosis
#      instead of crashing;
#   5. two processes running fig17 at -j 2 write identical timeline and
#      heatmap CSVs (process-wide memos must not leak into either).
# SMOKE_DIR holds the binaries and artifacts of smoke and ras-smoke.
SMOKE_DIR ?= /tmp/tmcc-smoke
CHAOS_PLAN = cte=0.05,stale=0.02,payload=0.02,spike=0.01:250ns,busy=0.01:100ns:3
smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkAccessPath|BenchmarkNewRunner|BenchmarkTraceNext|BenchmarkSizeModelBuild|BenchmarkCacheLookupInsert|BenchmarkBufferLoadPTB|BenchmarkDRAMRead' \
		-benchtime 1x ./internal/sim/ ./internal/workload/ ./internal/cache/ ./internal/ctecache/ ./internal/dram/
	$(GO) test -run '^$$' -bench 'BenchmarkAccessPath' -benchtime 1x -cpu 1,2 ./internal/sim/
	$(GO) test -run '^$$' -bench 'BenchmarkSizeModelBuild' -benchtime 1x -cpu 1,2 ./internal/workload/
	$(GO) test -run '^TestProducer' -cpu 1,2,4 -count=3 ./internal/sim/
	$(GO) test -run '^TestSizeModelMatchesSerial$$' -cpu 1,2,4 -count=3 ./internal/workload/
	mkdir -p $(SMOKE_DIR)
	$(GO) build -race -tags tmccdebug -o $(SMOKE_DIR)/tmccsim_chaos ./cmd/tmccsim
	$(GO) build -o $(SMOKE_DIR)/tmcctop ./cmd/tmcctop
	for i in 1 2; do d=$(SMOKE_DIR)/run$$i; \
		$(SMOKE_DIR)/tmccsim_chaos -run canneal -kind tmcc -quick \
			-faults '$(CHAOS_PLAN)' -chaos-seed 7 -ras \
			-metrics $$d.json -trace $$d.trace -breakdown-csv $$d.bd.csv \
			-flame $$d.flame -timeline $$d.tl.csv -timeline-window 100us \
			-heatmap $$d.hm.csv \
			> $$d.out 2> $$d.err || exit 1; done
	for f in out err bd.csv tl.csv hm.csv; do \
		diff -u $(SMOKE_DIR)/run1.$$f $(SMOKE_DIR)/run2.$$f || exit 1; done
	grep -q '^faults: ' $(SMOKE_DIR)/run1.err
	$(SMOKE_DIR)/tmcctop $(SMOKE_DIR)/run1.json | head -n 1 | grep -q '^ras tmcc: '
	if $(SMOKE_DIR)/tmccsim_chaos -run canneal -kind tmcc -budget 400 -quick \
		> /dev/null 2> $(SMOKE_DIR)/capacity.err; then \
		echo "smoke: tiny budget did not fail"; exit 1; fi
	grep -q 'capacity exhausted' $(SMOKE_DIR)/capacity.err
	$(GO) build -o $(SMOKE_DIR)/tmccsim ./cmd/tmccsim
	for i in 1 2; do d=$(SMOKE_DIR)/fig17_$$i; \
		$(SMOKE_DIR)/tmccsim -exp fig17 -quick -j 2 \
			-timeline $$d.tl.csv -timeline-window 100us -heatmap $$d.hm.csv \
			> /dev/null 2> $$d.err || exit 1; done
	for f in tl.csv hm.csv; do \
		diff -q $(SMOKE_DIR)/fig17_1.$$f $(SMOKE_DIR)/fig17_2.$$f || exit 1; done
	@echo "smoke: chaos run deterministic, snapshot renders, exhaustion graceful, fig17 artifacts reproduce across processes"

# ras-smoke proves the self-healing RAS layer end to end on a binary with
# the tmccdebug invariants and the race detector armed: a 25-plan seeded
# chaos campaign passes the invariant battery on every plan (attr
# conservation, heatmap reconciliation, graceful errors only, zero panics)
# and writes no failure artifact — any failure would have been
# delta-debugged to a 1-minimal plan there. Flags-off byte-identity is
# TestQuickSuiteMatchesGolden's.
ras-smoke:
	mkdir -p $(SMOKE_DIR)
	$(GO) build -race -tags tmccdebug -o $(SMOKE_DIR)/tmccsim_ras ./cmd/tmccsim
	rm -f $(SMOKE_DIR)/ras_failures.txt
	$(SMOKE_DIR)/tmccsim_ras -campaign 25 -campaign-out $(SMOKE_DIR)/ras_failures.txt
	@if [ -e $(SMOKE_DIR)/ras_failures.txt ]; then \
		echo "ras-smoke: campaign wrote a failure artifact:"; \
		cat $(SMOKE_DIR)/ras_failures.txt; exit 1; fi
	@echo "ras-smoke: 25-plan campaign green"

# steady-digests checks the steady benchmark workloads' committed digests
# (bench/golden), which pin Metrics, mc.Stats, dram.Stats and
# fault.Counters; paper-quick's are TestQuickSuiteMatchesGolden's. One
# unprofiled pass per workload and seed (~15s per seed on 2 CPUs); any
# run whose JSON does not read "correct": true fails the target.
steady-digests:
	for w in tmcc-steady uncompressed-steady armed-steady; do for s in 42 7; do \
		out=$$(bash bench/run.sh -workload $$w -seed $$s -seconds 0 -trace 0 | tail -n 1) || exit 1; \
		echo "$$w seed $$s: $$out" | cut -c1-160; \
		echo "$$out" | grep -q '"correct": *true' || { echo "steady-digests: $$w seed $$s is not correct"; exit 1; }; \
	done; done
	@echo "steady-digests: every steady workload matches its digests"

# full-suite pins the paper-size output that EXPERIMENTS.md reports:
# `tmccsim -all -seed 42` at full windows (~40s on 2 CPUs) must reproduce
# the committed experiments_full.txt byte for byte. The quick suite's
# tables are TestQuickSuiteMatchesGolden's. The output lands in SMOKE_DIR.
full-suite:
	mkdir -p $(SMOKE_DIR)
	$(GO) run ./cmd/tmccsim -all -seed 42 > $(SMOKE_DIR)/experiments_full.txt
	cmp experiments_full.txt $(SMOKE_DIR)/experiments_full.txt
	@echo "full-suite: paper-size tables match experiments_full.txt"

# artifact-diff proves a refactor moved no simulated byte: it builds
# tmccsim (plain and race+tmccdebug) and ptbscan from git revision BASE
# and from the working tree, runs the smoke chaos line, an observed quick
# fig17 at -j 2, the quick ext-2dwalk CSV and ptbscan (4KB and huge pages)
# with each, and fails on any output difference; the metrics JSONs are
# compared without their wall-clock engine histograms (needs jq).
# ARTIFACT_DIR holds the outputs.
artifact-diff:
	@test -n "$(BASE)" || { echo "usage: make artifact-diff BASE=<rev>"; exit 2; }
	CHAOS_PLAN='$(CHAOS_PLAN)' bash scripts/artifact-diff.sh $(BASE)
