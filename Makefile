# Build/test/CI entry points. `make ci` is what the smoke pipeline runs:
# vet + build + race-enabled tests (plus a dedicated -race pass over the
# concurrency-heavy engine and fault packages with a higher -count, the
# paths the robustness machinery exercises hardest), a short-budget fuzz
# pass over the arithmetic and recoding differential fuzzers, an
# end-to-end check that fourq-bench's machine-readable output carries
# real RTL statistics, a healthy batch-engine throughput experiment, a
# reconciled fault-injection campaign, a lane-batch smoke (the
# race-enabled engine coalescing tests plus a width-2 lockstep sweep),
# an observability smoke (race-enabled span/flight-recorder tests plus a
# linted end-to-end Prometheus scrape through fourq-sign -metrics),
# a serve smoke (race-enabled tests of the sharded signing service plus
# an end-to-end fourq-loadgen drive of a live fourq-serve: steady run
# gated against the committed BENCH_serve.json, overload run that must
# shed 503s without ever saturating an engine queue, linted /metrics
# scrape, graceful SIGTERM drain),
# a chaos smoke (race-enabled deterministic failure campaigns — a
# poisoned shard, a stalled shard, clock skew, saturation, drain racing
# a fault — against a real in-process server, gated against the
# committed BENCH_chaos.json),
# a scheduler smoke (race-enabled portfolio/tabu tests plus a
# short-budget pinned-seed portfolio solve that must be deterministic,
# hazard-proven, and beat the committed single-solver makespan),
# a fixed-base smoke (race-enabled comb/class-routing tests across the
# stack plus a real -exp fixedbase run whose comb schedule must beat
# the variable-base one),
# and finally the perf-regression gate: a fresh
# latency+throughput+batch+sched+fixedbase run on the portfolio schedule compared
# against the committed BENCH_rtl.json baseline (refresh it with
# `make bench-record` after a deliberate perf change; TOLERANCE sets
# the allowed fractional SM/s drop, and the allowed upward drift of the
# portfolio makespan).

GO ?= go
BENCH_JSON ?= /tmp/bench.json
FIXEDBASE_JSON ?= /tmp/fixedbase.json
THROUGHPUT_JSON ?= /tmp/throughput.json
BATCH_JSON ?= /tmp/batch.json
FAULTS_JSON ?= /tmp/faults.json
COMPARE_JSON ?= /tmp/bench_compare.json
BENCH_BASELINE ?= BENCH_rtl.json
TOLERANCE ?= 0.10
FUZZTIME ?= 5s
OBS_METRICS ?= /tmp/obs_metrics.prom

SERVE_BASELINE ?= BENCH_serve.json
CHAOS_JSON ?= /tmp/chaos.json
CHAOS_BASELINE ?= BENCH_chaos.json
CHAOS_SEED ?= 1

.PHONY: all build test vet race race-robust fuzz-smoke ci smoke lane-smoke obs-smoke serve-smoke serve-record chaos-smoke chaos-record sched-smoke fixedbase-smoke bench-record bench-compare clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Focused race hunt over the retry/quarantine/breaker machinery and the
# fault injector: repeated runs shake out interleavings a single -race
# pass can miss.
race-robust:
	$(GO) test -race -count=3 ./internal/engine ./internal/fault

# Short-budget fuzz smoke: one representative differential fuzzer per
# package (go's -fuzz accepts a single target per run), plus the fp2 row
# kernel, the only multiplier on the fast execution path. Seed corpora in
# testdata/fuzz/ run on every plain `go test`; this adds a few seconds
# of coverage-guided input generation on top.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzArithVsBig$$' -fuzztime=$(FUZZTIME) ./internal/fp
	$(GO) test -run='^$$' -fuzz='^FuzzMulVsBig$$' -fuzztime=$(FUZZTIME) ./internal/fp2
	$(GO) test -run='^$$' -fuzz='^FuzzMulAlg2RowsEquivalence$$' -fuzztime=$(FUZZTIME) ./internal/fp2
	$(GO) test -run='^$$' -fuzz='^FuzzDecomposeRecodeRoundTrip$$' -fuzztime=$(FUZZTIME) ./internal/scalar

smoke: build
	$(GO) run ./cmd/fourq-bench -exp latency -json $(BENCH_JSON)
	$(GO) run ./scripts/benchcheck $(BENCH_JSON)
	$(GO) run ./cmd/fourq-bench -exp throughput -json $(THROUGHPUT_JSON)
	$(GO) run ./scripts/benchcheck $(THROUGHPUT_JSON)
	$(GO) run ./cmd/fourq-bench -exp faults -json $(FAULTS_JSON)
	$(GO) run ./scripts/benchcheck $(FAULTS_JSON)

# Lane-batch smoke: the race-enabled coalescing/lockstep engine tests,
# then a cheap width-2 lockstep sweep through the real bench binary so
# CI exercises the -exp batch path end to end (full widths are swept by
# bench-record/bench-compare).
lane-smoke: build
	$(GO) test -race -run 'Lane|Coalesc' -count=1 ./internal/engine ./internal/core ./internal/rtl
	$(GO) run ./cmd/fourq-bench -exp batch -lanes 1,2 -json $(BATCH_JSON)
	$(GO) run ./scripts/benchcheck $(BATCH_JSON)

# Observability smoke: the race-enabled span/flight-recorder/exposition
# tests (including the zero-alloc guarantee of the tracing-disabled hot
# path), then an end-to-end scrape check — fourq-sign writes its
# engine's Prometheus exposition and promlint validates it.
obs-smoke: build
	$(GO) test -race -count=1 -run 'Span|Trace|Flight|Sampling|Prometheus|Handler|DebugMux|Quantile|SumCount|PromName|ZeroAlloc|LaneFill' ./internal/telemetry ./internal/engine
	$(GO) test -count=1 ./scripts/promlint
	$(GO) run ./cmd/fourq-sign -workers 2 -metrics $(OBS_METRICS)
	$(GO) run ./scripts/promlint $(OBS_METRICS)

# Serve smoke: the race-enabled service tests (end-to-end mixed traffic
# against the software oracle, fake-clock drain, malformed-input
# rejection), then the live harness in scripts/serve_smoke.sh — a real
# fourq-serve driven by fourq-loadgen, with the steady run gated against
# the committed BENCH_serve.json and the overload run required to shed
# cleanly before any engine queue saturates.
serve-smoke: build
	$(GO) test -race -count=1 ./internal/serve
	SERVE_BASELINE=$(SERVE_BASELINE) sh ./scripts/serve_smoke.sh

# Chaos smoke: the race-enabled failure campaigns of internal/chaos
# (seed pinned inside the test), then a fresh fourq-chaos run at the
# committed seed — the process exits non-zero on any invariant breach —
# validated by benchcheck alongside the committed BENCH_chaos.json, so
# CI fails if either the live campaign or the recorded baseline stops
# holding the invariants (exactly-once, zero mis-answers,
# shed-before-backpressure, bounded recovery).
chaos-smoke: build
	$(GO) test -race -count=1 ./internal/chaos ./internal/fault
	$(GO) run ./cmd/fourq-chaos -seed $(CHAOS_SEED) -requests 60 -q -json $(CHAOS_JSON)
	$(GO) run ./scripts/benchcheck $(CHAOS_JSON)
	$(GO) run ./scripts/benchcheck $(CHAOS_BASELINE)

# Refresh the committed chaos baseline (validated before it lands).
chaos-record: build
	$(GO) run ./cmd/fourq-chaos -seed $(CHAOS_SEED) -requests 60 -json $(CHAOS_BASELINE)
	$(GO) run ./scripts/benchcheck $(CHAOS_BASELINE)

# Refresh the committed service baseline from a steady loadgen run
# (validated by benchcheck inside the harness before it lands).
serve-record: build
	SERVE_BENCH_OUT=$(SERVE_BASELINE) SERVE_BASELINE=$(SERVE_BASELINE) sh ./scripts/serve_smoke.sh

# Scheduler smoke: the race-enabled portfolio/tabu solver tests, then a
# short-budget pinned-seed portfolio solve of the real trace that must
# reproduce itself bit for bit, survive the RTL hazard prover at the
# cycle count it claimed, and beat the committed baseline's
# single-solver makespan (the full-budget head-to-head is gated by
# bench-compare).
sched-smoke: build
	$(GO) test -race -count=1 -run 'Portfolio|Tabu|MetricsProgress' ./internal/jobshop ./internal/sched
	$(GO) run ./scripts/schedsmoke -baseline $(BENCH_BASELINE)

# Fixed-base smoke: the race-enabled comb tests across every layer
# (recoding, ROM-operand RTL, the third core microprogram, the engine's
# class-homogeneous coalescing, fixed-base-routed signing), then the
# real -exp fixedbase experiment — portfolio-solved, determinism-
# checked, differentially validated against the library's precomputed
# table, and required by benchcheck to beat the variable-base schedule.
fixedbase-smoke: build
	$(GO) test -race -count=1 -run 'FixedBase|Class|Recode' ./internal/scalar ./internal/curve ./internal/trace ./internal/rtl ./internal/core ./internal/engine ./internal/schnorrq ./internal/serve
	$(GO) run ./cmd/fourq-bench -exp fixedbase -json $(FIXEDBASE_JSON)
	$(GO) run ./scripts/benchcheck $(FIXEDBASE_JSON)

# Record the committed performance baseline: one report carrying the
# latency experiment (with host single-thread compiled vs interpreted
# SM/s), the batch-engine throughput sweep, the lockstep lane-width
# sweep, and the scheduler head-to-head (with the deterministic
# portfolio schedule hash), validated before it lands in the tree. The
# measured experiments run on the portfolio schedule — the SM/s
# baselines describe the solver the binaries actually ship.
bench-record: build
	$(GO) run ./cmd/fourq-bench -exp latency,throughput,batch,sched,fixedbase -sched portfolio -json $(BENCH_BASELINE)
	$(GO) run ./scripts/benchcheck $(BENCH_BASELINE)

# Perf-regression gate: a fresh run of the same experiments must stay
# within TOLERANCE of every SM/s metric in the committed baseline
# (including the lockstep peak lane rate), and the portfolio makespan
# must not drift up past the committed cycle count by more than
# TOLERANCE either.
bench-compare: build
	$(GO) run ./cmd/fourq-bench -exp latency,throughput,batch,sched,fixedbase -sched portfolio -json $(COMPARE_JSON)
	$(GO) run ./scripts/benchcheck -baseline $(BENCH_BASELINE) -tolerance $(TOLERANCE) $(COMPARE_JSON)

ci: vet build race race-robust fuzz-smoke smoke lane-smoke obs-smoke serve-smoke chaos-smoke sched-smoke fixedbase-smoke bench-compare

clean:
	$(GO) clean ./...
	rm -f $(BENCH_JSON) $(THROUGHPUT_JSON) $(BATCH_JSON) $(FAULTS_JSON) $(COMPARE_JSON) $(OBS_METRICS) $(CHAOS_JSON) $(FIXEDBASE_JSON)
