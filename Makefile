# Developer entry points; CI (.github/workflows/ci.yml) runs the same steps.

GO ?= go

.PHONY: all build lint test race debug fuzz-smoke fmt bench core-bench-smoke identity-smoke obs-smoke breakdown-smoke chaos-smoke timeline-smoke heatmap-smoke ras-smoke

all: lint test

build:
	$(GO) build ./...

# lint = formatting + vet + the domain-aware tmcclint rules. tmcclint is
# two-phase: syntactic AST rules (determinism, architectural-constant
# hygiene, panic conventions) plus type-aware semantic rules (atomic
# discipline, memo-key purity, error discipline, Time/Cycles unit safety,
# attribution registration). -time prints per-phase and per-package wall
# time; the whole-module type-check is loaded once and shared by every
# rule, keeping the full run well under 10s.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needs to run on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/tmcclint -time ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# debug enables the check.Invariant audits (ML1/ML2 chunk conservation,
# free-list accounting, PTB 64B-fit round-trips).
debug:
	$(GO) test -tags tmccdebug ./...

fuzz-smoke:
	$(GO) test -run=^$$ -fuzz FuzzBlockCompRoundTrip -fuzztime 10s ./internal/blockcomp/
	$(GO) test -run=^$$ -fuzz FuzzMemDeflateRoundTrip -fuzztime 10s ./internal/memdeflate/
	$(GO) test -run=^$$ -fuzz FuzzEntryRoundTrip -fuzztime 10s ./internal/cte/
	$(GO) test -run=^$$ -fuzz FuzzParseAllow -fuzztime 10s ./internal/lint/
	$(GO) test -run=^$$ -fuzz FuzzParsePlan -fuzztime 10s ./internal/fault/

fmt:
	gofmt -w .

# bench runs every microbenchmark once (compile/shape check); pass
# BENCHTIME=2s for real numbers. BENCH_engine.json records the measured
# engine + LZ wins for this machine.
BENCHTIME ?= 1x
bench:
	$(GO) test -run '^$$' -bench . -benchtime $(BENCHTIME) ./...

# core-bench-smoke exercises the batched simulation core's contracts
# without timing assertions (CI machines are noisy): the per-design
# access-path microbenchmark compiles and completes, the measured loop is
# allocation-free, and a mid-run capacity error stops within one batch.
# BENCH_core.json records the measured numbers for this machine.
core-bench-smoke:
	$(GO) test -run '^$$' -bench BenchmarkAccessPath -benchtime 1x ./internal/sim/
	$(GO) test -run 'TestMeasuredLoopAllocationFree|TestCapacityErrorStopsWithinOneBatch' ./internal/sim/
	@echo "core-bench-smoke: access path alloc-free, batch error stop"

# identity-smoke is the one flags-off byte-identity gate over the full
# quick suite: a plain build at -j 1 is the reference, and both a plain
# build at -j 4 (the engine's -j guarantee) and a -race -tags tmccdebug
# build at -j 4 (invariant audits and the race detector armed, every
# fault/RAS hook disarmed) must render it byte-identically.
identity-smoke:
	$(GO) build -o /tmp/tmccsim ./cmd/tmccsim
	$(GO) build -race -tags tmccdebug -o /tmp/tmccsim_chaos ./cmd/tmccsim
	/tmp/tmccsim -all -quick -format csv -j 1 > /tmp/tmcc_id_j1.csv
	/tmp/tmccsim -all -quick -format csv -j 4 -stats > /tmp/tmcc_id_j4.csv
	/tmp/tmccsim_chaos -all -quick -format csv -j 4 > /tmp/tmcc_id_dbg.csv
	diff -u /tmp/tmcc_id_j1.csv /tmp/tmcc_id_j4.csv
	diff -u /tmp/tmcc_id_j1.csv /tmp/tmcc_id_dbg.csv
	@echo "identity-smoke: -j 1, -j 4 and race+tmccdebug outputs are byte-identical"

# obs-smoke proves observation does not perturb the simulation: the quick
# suite with -metrics/-trace must render byte-identically to a plain run,
# and the artifacts must parse (tmcctop renders the snapshot and validates
# the Chrome trace).
obs-smoke:
	$(GO) build -o /tmp/tmccsim ./cmd/tmccsim
	$(GO) build -o /tmp/tmcctop ./cmd/tmcctop
	/tmp/tmccsim -all -quick -format csv > /tmp/tmccsim_plain.csv
	/tmp/tmccsim -all -quick -format csv \
		-metrics /tmp/tmcc_obs.json -trace /tmp/tmcc_obs.trace \
		> /tmp/tmccsim_obs.csv
	diff -u /tmp/tmccsim_plain.csv /tmp/tmccsim_obs.csv
	/tmp/tmcctop /tmp/tmcc_obs.json > /dev/null
	/tmp/tmcctop -validate-trace /tmp/tmcc_obs.trace
	@echo "obs-smoke: observed and plain outputs are byte-identical"

# breakdown-smoke proves the latency-attribution path end to end: an
# attributed run renders byte-identically to a plain one, every breakdown
# CSV row conserves (components minus the doubly-counted overlap credit
# equal the measured total), and each design's signature shows up —
# serialized CTE time for Compresso, overlap credit for TMCC. fig18
# exercises the uncompressed, Compresso, and TMCC designs; fig5 adds
# OS-inspired, so every MC kind runs attributed.
breakdown-smoke:
	$(GO) build -o /tmp/tmccsim ./cmd/tmccsim
	/tmp/tmccsim -exp fig18 -quick -format csv > /tmp/tmccsim_nobd.csv
	/tmp/tmccsim -exp fig18 -quick -format csv \
		-breakdown-csv /tmp/tmcc_breakdown.csv -flame /tmp/tmcc.flame \
		> /tmp/tmccsim_bd.csv
	diff -u /tmp/tmccsim_nobd.csv /tmp/tmccsim_bd.csv
	awk -F, 'NR>1 { s=0; for (i=6; i<=19; i++) s+=$$i; s-=2*$$11; \
		if (s != $$5) { print "unconserved row: " $$0; exit 1 } }' /tmp/tmcc_breakdown.csv
	awk -F, '$$2=="compresso" && $$3=="demand" { found=1; \
		if ($$9+0 <= 0) { print "compresso demand row has no serialized CTE time"; exit 1 } } \
		END { if (!found) { print "no compresso demand row"; exit 1 } }' /tmp/tmcc_breakdown.csv
	awk -F, '$$2=="tmcc" && $$3=="demand" { found=1; \
		if ($$11+0 <= 0) { print "tmcc demand row has no overlap credit"; exit 1 } } \
		END { if (!found) { print "no tmcc demand row"; exit 1 } }' /tmp/tmcc_breakdown.csv
	test -s /tmp/tmcc.flame
	/tmp/tmccsim -exp fig5 -quick -format csv -breakdown > /dev/null
	@echo "breakdown-smoke: attribution conserves and leaves plain output untouched"

# chaos-smoke proves the fault-injection contract end to end on a binary
# with the tmccdebug invariants and the race detector armed (the quick
# suite's flags-off identity lives in identity-smoke):
#   1. faults off is byte-identical to the plain build's single run;
#   2. a seeded all-faults chaos run completes panic-free and two runs with
#      the same plan+seed produce identical scorecards AND fault counters;
#   3. a too-small budget exits nonzero with the capacity diagnosis
#      instead of crashing.
CHAOS_PLAN = cte=0.05,stale=0.02,payload=0.02,spike=0.01:250ns,busy=0.01:100ns:3
chaos-smoke:
	$(GO) build -o /tmp/tmccsim ./cmd/tmccsim
	$(GO) build -race -tags tmccdebug -o /tmp/tmccsim_chaos ./cmd/tmccsim
	/tmp/tmccsim -run canneal -kind tmcc -quick > /tmp/tmcc_plain.out
	/tmp/tmccsim_chaos -run canneal -kind tmcc -quick > /tmp/tmcc_off.out
	diff -u /tmp/tmcc_plain.out /tmp/tmcc_off.out
	/tmp/tmccsim_chaos -run canneal -kind tmcc -quick \
		-faults '$(CHAOS_PLAN)' -chaos-seed 7 > /tmp/tmcc_chaos1.out 2> /tmp/tmcc_chaos1.err
	/tmp/tmccsim_chaos -run canneal -kind tmcc -quick \
		-faults '$(CHAOS_PLAN)' -chaos-seed 7 > /tmp/tmcc_chaos2.out 2> /tmp/tmcc_chaos2.err
	diff -u /tmp/tmcc_chaos1.out /tmp/tmcc_chaos2.out
	diff -u /tmp/tmcc_chaos1.err /tmp/tmcc_chaos2.err
	grep -q '^faults: ' /tmp/tmcc_chaos1.err
	if /tmp/tmccsim_chaos -run canneal -kind tmcc -budget 400 -quick \
		> /dev/null 2> /tmp/tmcc_capacity.err; then \
		echo "chaos-smoke: tiny budget did not fail"; exit 1; fi
	grep -q 'capacity exhausted' /tmp/tmcc_capacity.err
	@echo "chaos-smoke: faults-off identical, chaos deterministic, exhaustion graceful"

# timeline-smoke proves the windowed-timeline path end to end:
#   1. a -timeline run renders the scorecard byte-identically to a plain run;
#   2. the timeline CSV is byte-identical at -j 1 and -j 4;
#   3. every window's attr rows conserve (components minus the doubly-counted
#      overlap credit equal the window total), checked independently in awk;
#   4. the sparkline renderer consumes a watch file carrying a timeline, and
#      the Chrome trace's counter events pass tmcctop -validate-trace.
timeline-smoke:
	$(GO) build -o /tmp/tmccsim ./cmd/tmccsim
	$(GO) build -o /tmp/tmcctop ./cmd/tmcctop
	/tmp/tmccsim -exp fig17 -quick -format csv > /tmp/tmccsim_notl.csv
	/tmp/tmccsim -exp fig17 -quick -format csv -j 1 \
		-timeline /tmp/tmcc_tl_j1.csv > /tmp/tmccsim_tl.csv
	diff -u /tmp/tmccsim_notl.csv /tmp/tmccsim_tl.csv
	/tmp/tmccsim -exp fig17 -quick -format csv -j 4 \
		-timeline /tmp/tmcc_tl_j4.csv > /dev/null
	diff -u /tmp/tmcc_tl_j1.csv /tmp/tmcc_tl_j4.csv
	awk -F, '$$4=="attr" { split($$5, a, "."); key=$$1","$$2","$$3","a[1]; \
		if (a[2]=="total") tot[key]=$$7; \
		else { s[key]+=$$7; if (a[2]=="overlapCredit") ov[key]=$$7 } found=1 } \
		END { if (!found) { print "no attr rows in timeline CSV"; exit 1 } \
		for (k in tot) if (s[k]-2*ov[k] != tot[k]) { \
			print "unconserved window: " k; exit 1 } }' /tmp/tmcc_tl_j1.csv
	/tmp/tmccsim -run canneal -kind tmcc -quick \
		-watchfile /tmp/tmcc_tl.watch -watch-every 50ms \
		-timeline /tmp/tmcc_tl_run.csv -trace /tmp/tmcc_tl.trace > /dev/null
	/tmp/tmcctop -timeline /tmp/tmcc_tl.watch -iters 1 | grep -q 'windows of'
	/tmp/tmcctop -validate-trace /tmp/tmcc_tl.trace | grep -q 'counters'
	@echo "timeline-smoke: windows conserve, -j byte-identity, plain output untouched"

# heatmap-smoke proves the address-space heatmap path end to end:
#   1. a -heatmap run renders the scorecard byte-identically to a plain run;
#   2. the heatmap CSV is byte-identical at -j 1 and -j 4;
#   3. every (benchmark, kind, series, name) conserves — region rows sum to
#      the group's independently accumulated total row, for both the count
#      and sum columns — checked independently in awk;
#   4. the heat-bar renderer consumes a watch file carrying a heatmap.
heatmap-smoke:
	$(GO) build -o /tmp/tmccsim ./cmd/tmccsim
	$(GO) build -o /tmp/tmcctop ./cmd/tmcctop
	/tmp/tmccsim -exp fig18 -quick -format csv > /tmp/tmccsim_nohm.csv
	/tmp/tmccsim -exp fig18 -quick -format csv -j 1 \
		-heatmap /tmp/tmcc_hm_j1.csv > /tmp/tmccsim_hm.csv 2> /dev/null
	diff -u /tmp/tmccsim_nohm.csv /tmp/tmccsim_hm.csv
	/tmp/tmccsim -exp fig18 -quick -format csv -j 4 \
		-heatmap /tmp/tmcc_hm_j4.csv > /dev/null 2> /dev/null
	diff -u /tmp/tmcc_hm_j1.csv /tmp/tmcc_hm_j4.csv
	awk -F, 'NR>1 { key=$$1","$$2","$$4","$$5; \
		if ($$3=="total") { tot[key]=$$6; tsum[key]=$$7 } \
		else { s[key]+=$$6; ssum[key]+=$$7; found=1 } } \
		END { if (!found) { print "no region rows in heatmap CSV"; exit 1 } \
		for (k in s) if (s[k] != tot[k]+0 || ssum[k] != tsum[k]+0) { \
			print "unconserved series: " k; exit 1 } }' /tmp/tmcc_hm_j1.csv
	grep -q ',heat,demand,' /tmp/tmcc_hm_j1.csv
	grep -q ',residency,' /tmp/tmcc_hm_j1.csv
	/tmp/tmccsim -run canneal -kind tmcc -quick \
		-watchfile /tmp/tmcc_hm.watch -watch-every 50ms \
		-heatmap /tmp/tmcc_hm_run.csv > /dev/null 2> /dev/null
	/tmp/tmcctop -heatmap /tmp/tmcc_hm.watch -iters 1 | grep -q 'regions'
	@echo "heatmap-smoke: regions conserve, -j byte-identity, plain output untouched"

# ras-smoke proves the self-healing RAS layer end to end on a binary with
# the tmccdebug invariants and the race detector armed: a 25-plan seeded
# chaos campaign passes the invariant battery on every plan (attr
# conservation, heatmap reconciliation, graceful errors only, zero panics)
# and writes no failure artifact — any failure would have been
# delta-debugged to a 1-minimal plan there. Flags-off byte-identity is
# identity-smoke's.
ras-smoke:
	$(GO) build -race -tags tmccdebug -o /tmp/tmccsim_ras ./cmd/tmccsim
	rm -f /tmp/tmcc_ras_failures.txt
	/tmp/tmccsim_ras -campaign 25 -campaign-out /tmp/tmcc_ras_failures.txt
	@if [ -e /tmp/tmcc_ras_failures.txt ]; then \
		echo "ras-smoke: campaign wrote a failure artifact:"; \
		cat /tmp/tmcc_ras_failures.txt; exit 1; fi
	@echo "ras-smoke: 25-plan campaign green"
