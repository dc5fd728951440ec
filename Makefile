# Tier-1 verification plus static and race checks.
#
#   make check       vet + lint + build + tests (benchmark module's too) + race + fuzz corpora + crash-consistency smoke + gcsweep + report + slo
#   make lint        splitlint determinism-contract analyzers (see DESIGN.md)
#   make crashsweep  fault-injected crash sweep; fails on any invariant violation
#   make gcsweep     GC-inversion sweep on an aged FTL SSD; fails if gc-afq inverts
#   make report      latency-attribution report; fails on split-scheduler inversions
#   make slo         windowed SLO gate; CFQ must breach (with a bundle), split-AFQ must not
#   make clean       remove generated artifacts (reports, SARIF, coverage, post-mortems)
#   make fuzz        checked-in fuzz corpora in regression mode (no exploration)
#   make cover       coverage profile + HTML; fails if total drops below coverage-baseline.txt
#   make bench       same-host A/B of _perfbench: BASE (default HEAD) against this tree, gated on BENCHMARK.json bounds
#   make microbench  testing.B microbenchmarks for the DES/cache/SSD hot paths
#
# NPROC controls -j for the splitbench sweeps (cells fan across a worker
# pool; output is byte-identical at any -j, so parallelism is free).

GO ?= go
GOFMT ?= gofmt
NPROC ?= $(shell nproc 2>/dev/null || echo 1)

.PHONY: check build test vet race bench microbench lint fuzz cover crashsweep gcsweep report slo clean

check: vet lint build test race fuzz crashsweep gcsweep report slo

# The full interprocedural suite (call graph + taint fixpoints) is the
# slowest static check, so the wall time is echoed to stderr; the SARIF
# log feeds the code-scanning upload in CI.
lint:
	@start=$$(date +%s%N); \
	$(GO) run ./cmd/splitlint -sarif splitlint.sarif || exit $$?; \
	end=$$(date +%s%N); \
	echo "splitlint: clean in $$(( (end - start) / 1000000 )) ms" >&2

build:
	$(GO) build ./...

# The benchmark module's own tests run on their own (see vet): among them,
# a machine corrupted after the drain must fail the run.
test:
	$(GO) test ./...
	cd _perfbench && $(GO) test .

# Root `go test ./...` skips `_`-prefixed directories, so the benchmark
# module is vetted on its own: a deleted API it uses fails here rather than
# in a benchmark run. Files under testdata/ are fixtures and may be
# deliberately unformatted.
vet:
	$(GO) vet ./...
	cd _perfbench && $(GO) vet ./...
	@unformatted=$$($(GOFMT) -l . | grep -v '/testdata/'); \
	if [ -n "$$unformatted" ]; then echo "gofmt: unformatted files:" >&2; echo "$$unformatted" >&2; exit 1; fi

race:
	$(GO) test -race ./...

# Same-host A/B gate on the end-to-end benchmark: runs _perfbench
# alternately in a worktree of BASE and in this tree, and fails when a run
# is incorrect, more operations fail, or any workload's end-to-end metric
# median is worse than the base's by more than its BENCHMARK.json bound.
# Both sides run on one host, so the gate does not depend on its speed.
BASE ?= HEAD
bench:
	bash scripts/bench-ab.sh $(BASE)

# BenchmarkSplitlintRepo is a full cold whole-program analysis per
# iteration, so it gets its own -benchtime=1x invocation rather than
# joining the 1000x hot-path line. The zero-alloc tests are the asserted
# complement of the microbenchmarks: steady-state schedule/pop (pooled
# events, concrete-typed four-ary heap), a warm process Sleep round trip
# (prebuilt wake, coroutine switch) and the page-cache hot paths (page
# slab, interned tags) must allocate nothing, and the target fails if any
# of them regresses.
microbench:
	$(GO) test -run '^Test(ScheduleRun|ProcSwitch|CacheSteadyState)ZeroAllocs$$' -count=1 ./internal/sim ./internal/cache
	$(GO) test -bench=. -benchtime=1000x -benchmem -run '^$$' ./internal/sim ./internal/cache ./internal/ssd
	$(GO) test -bench=BenchmarkSplitlintRepo -benchtime=1x -run '^$$' ./internal/analysis

# Replays the checked-in seed corpora (testdata/fuzz/...) without fuzzing:
# a pure regression gate that keeps every once-interesting input passing.
# Exploration stays manual: go test -fuzz=FuzzWorkloadParse ./internal/workload
fuzz:
	$(GO) test -run '^Fuzz' ./internal/workload ./internal/attr ./internal/cache

cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -html=coverage.out -o coverage.html
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	base=$$(cat coverage-baseline.txt); \
	echo "coverage: $$total% (baseline $$base%)"; \
	awk -v t="$$total" -v b="$$base" 'BEGIN { exit (t+0 < b+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% fell below the $$base% baseline" >&2; exit 1; }

crashsweep:
	$(GO) run ./cmd/splitbench -scale 0.1 -seed 1 -j $(NPROC) -postmortem postmortem-crashsweep.json crashsweep

# GC-inversion demonstration on a steady-state-aged FTL SSD: CFQ must show
# gc-stall inversions (the phenomenon) and gc-afq must show none (the fix);
# either failing is a violation that exits nonzero.
gcsweep:
	$(GO) run ./cmd/splitbench -scale 0.1 -seed 1 -j $(NPROC) -postmortem postmortem-gcsweep.json gcsweep

# Runs the entangled antagonist workload under noop/cfq/afq, writes the
# blame-table report (the CI artifact), and exits nonzero if any split
# scheduler shows a priority inversion.
report:
	$(GO) run ./cmd/splitbench -scale 0.1 -seed 1 -j $(NPROC) -postmortem postmortem-report.json report -format json -o report.json

# Two-sided windowed-SLO gate on the entangled antagonist workload: the
# block-level baseline must breach at a deterministic virtual timestamp and
# dump a flight-recorder bundle; split-AFQ on the same seed must not breach.
slo:
	$(GO) run ./cmd/splitbench -scale 0.1 -seed 1 -j $(NPROC) -postmortem postmortem-slo.json slo

# Generated artifacts only — never sources. Post-mortem bundles are kept by
# CI as artifacts, not by git.
clean:
	rm -f report.json splitlint.sarif coverage.out coverage.html postmortem-*.json
	rm -rf .splitbench-cache
