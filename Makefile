# Standard entry points for the DFT toolkit. `make check` is the
# pre-commit gate: build, vet, and the full test suite under the race
# detector.

GO ?= go

.PHONY: all build vet test race race-telemetry race-fault race-sim race-service race-compact race-diagnose race-advise check fuzz fuzz-smoke bench bench-json bench-faultsim bench-faultpar bench-sim bench-service bench-compact bench-diagnose bench-advise clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-telemetry covers the span registry and the lock-free Progress
# primitive — concurrently ticked by engine workers while the monitor
# goroutine and /metrics scrapes read them.
race-telemetry:
	$(GO) test -race ./internal/telemetry/...

# race-fault gives fast feedback on the engine's shard merge — the one
# place in the tree with lock-free concurrent writes — before the full
# race suite runs.
race-fault:
	$(GO) test -race ./internal/fault/...

# race-sim covers the compiled-kernel program cache, the other shared
# structure hit concurrently by every simulation worker.
race-sim:
	$(GO) test -race ./internal/sim/...

# race-service covers the dftd job server — queue, worker pool, result
# cache and graceful drain all exercise shared state under load.
race-service:
	$(GO) test -race ./internal/service/...

# race-compact covers the compaction engine's sharded replay sessions —
# worker-invariance tests drive the same session at several sharding
# degrees.
race-compact:
	$(GO) test -race ./internal/compact/...

# race-diagnose covers the fault-dictionary build (engine detail grades
# at several backends and worker counts must agree byte-for-byte) and
# the pooled per-dictionary simulator shared by concurrent lookups.
race-diagnose:
	$(GO) test -race ./internal/diagnose/...

# race-advise covers the closed-loop advisor — sharded probe sessions
# plus the long-running service job kind whose mid-run cancellation and
# per-iteration checkpointing must stay clean under the race detector.
race-advise:
	$(GO) test -race ./internal/advise/... ./internal/service/...

check: build vet race-telemetry race-fault race-sim race-service race-compact race-diagnose race-advise race fuzz-smoke

# fuzz runs the coverage-guided differential fuzz targets: the compiled
# kernel against the interpreter at every execution width, and every
# fault-simulation backend/worker/drop configuration plus the deductive
# reference against the serial baseline. FUZZTIME bounds each target.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzKernelEquivalence -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run='^$$' -fuzz=FuzzBackendEquivalence -fuzztime=$(FUZZTIME) ./internal/fault

# fuzz-smoke is the short differential-fuzz pass that `make check` and
# scripts/check.sh share: same targets as fuzz, bounded by SMOKETIME,
# so the pre-commit gate always replays the seed corpora plus a short
# guided search.
SMOKETIME ?= 10s
fuzz-smoke:
	$(MAKE) fuzz FUZZTIME=$(SMOKETIME)

bench:
	$(GO) test -run='^$$' -bench=. -benchmem .

# bench-json runs the benchmarks and leaves the accumulated telemetry
# as a dft.run-report/v1 document in BENCH_telemetry.json.
bench-json:
	DFT_BENCH_JSON=BENCH_telemetry.json $(GO) test -run='^$$' -bench=. -benchmem .

# bench-faultsim measures engine scaling at 1/2/4/8 workers and leaves
# the shard counters as a dft.run-report/v1 document.
bench-faultsim:
	DFT_BENCH_JSON=BENCH_faultsim.json $(GO) test -run='^$$' -bench=BenchmarkEngineScaling -benchmem .

# bench-faultpar compares cpt critical-path tracing against the PPSFP
# baseline on a large no-drop grading and on a few-pattern re-grade,
# leaving the backend work counters as a dft.run-report/v1 document.
bench-faultpar:
	DFT_BENCH_JSON=BENCH_faultpar.json $(GO) test -run='^$$' -bench='BenchmarkEngineScaling/(nodrop|fewpats)' -benchmem .

# bench-sim measures the interpreted vs compiled good-machine kernels
# (scalar word and blocked) and leaves the kernel counters as a
# dft.run-report/v1 document.
bench-sim:
	DFT_BENCH_JSON=BENCH_simkernel.json $(GO) test -run='^$$' -bench=BenchmarkInterpVsCompiled -benchmem .

# bench-service measures job-service overhead and the progress-
# instrumentation ablation (the instrumented engine must stay within
# 2% of the NoProgress run), leaving the telemetry as a
# dft.run-report/v1 document.
bench-service:
	DFT_BENCH_JSON=BENCH_service.json $(GO) test -run='^$$' -bench=BenchmarkService -benchmem .

# bench-compact measures test-set compaction on random and
# deterministic workloads (targets: ≥ 4× on a 1024-pattern random set,
# ≥ 1.5× on the classical per-fault deterministic set) and leaves the
# ratios and engine counters as a dft.run-report/v1 document.
bench-compact:
	DFT_BENCH_JSON=BENCH_compact.json $(GO) test -run='^$$' -bench=BenchmarkCompact -benchmem .

# bench-diagnose measures fault-dictionary construction: the
# engine-backed build against the legacy serial per-fault loop (target:
# ≥ 4× on the 8×8 multiplier), plus the full-response tier and the
# compacted-input variant, leaving dictionary sizes and the speedup as
# a dft.run-report/v1 document.
bench-diagnose:
	DFT_BENCH_JSON=BENCH_diagnose.json $(GO) test -run='^$$' -bench=BenchmarkDiagnose -benchmem .

# bench-advise measures the closed-loop DFT advisor's coverage-vs-
# overhead trade on the hardcore builtin (must climb from a sub-90%
# baseline to the 99% target) and the 74181 ALU (must stop early at
# zero overhead), leaving the trajectory gauges and probe counters as a
# dft.run-report/v1 document.
bench-advise:
	DFT_BENCH_JSON=BENCH_advise.json $(GO) test -run='^$$' -bench=BenchmarkAdvise -benchmem .

clean:
	$(GO) clean ./...
	rm -f BENCH_telemetry.json BENCH_faultsim.json BENCH_faultpar.json BENCH_simkernel.json BENCH_service.json BENCH_compact.json BENCH_diagnose.json BENCH_advise.json
