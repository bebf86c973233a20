# swcc — reproduction of Owicki & Agarwal, ASPLOS 1989.
# Standard targets; everything runs offline with the Go toolchain only.

GO ?= go

.PHONY: all build test vet perfbench-build race race-hammer bench bench-short bench-json bench-diff alloc-check fuzz-smoke check serve smoke schemes-smoke chaos-smoke jobs-smoke gw-smoke loadgen docs-check artifacts examples golden cover clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The benchmark in perfbench/ is its own module, so `build` and `vet`
# never compile it: build and vet it here, so an API change that breaks
# the benchmark fails the gate.
perfbench-build:
	cd perfbench && $(GO) build -o /dev/null ./... && $(GO) vet ./...

# Race-detector pass over the whole module; the sweep engine and the
# parallel experiment runners make this a first-class gate.
race:
	$(GO) test -race ./...

# Full benchmark suite: one benchmark per paper table/figure plus
# solver/simulator micro benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# Quick perf signal: the sweep engine (sequential vs parallel vs cached,
# with the speedup metric), the simulator hot loop, the two network
# simulators at the patel/packetsim configurations (cycles/s), decoding
# a 64-point cold-sweep-shaped /v1/sweep body, and deriving one
# request's gateway keys.
bench-short:
	$(GO) test -run=NONE -bench='BenchmarkSweep|BenchmarkEvaluator' -benchmem ./internal/sweep
	$(GO) test -run=NONE -bench='BenchmarkSimHotLoop|BenchmarkTraceRestrict' -benchmem ./internal/sim
	$(GO) test -run=NONE -bench='BenchmarkRun' -benchmem ./internal/netsim
	$(GO) test -run=NONE -bench='BenchmarkDecodeSweep' -benchmem ./internal/serve
	$(GO) test -run=NONE -bench='BenchmarkPointKey' -benchmem ./internal/gw

# The benchmark record: `make bench-json PR=<n>` runs perfbench (`bash
# perfbench/run.sh`, the command BENCHMARK.json names) on every workload
# BENCHMARK.json lists, for its run_seconds each: untraced on seeds 1-3,
# then once with --trace 1 for the per-layer metrics. BENCH_PR<n>.json
# keeps each run's workload, seed and trace flag with perfbench's JSON
# result line verbatim. A run that exits nonzero is still recorded (its
# line says correct false, which bench-diff fails) and fails the target.
# Records are append-only history, one per PR that measures.
bench-json:
	@test -n "$(PR)" || { echo "bench-json: usage: make bench-json PR=<n>" >&2; exit 2; }
	@secs=$$(sed -n 's/^ *"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json); \
	workloads=$$(sed -n '/"workloads"/,/"end_to_end"/s/^ *"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json); \
	out=BENCH_PR$(PR).json; status=0; sep=; \
	printf '{"tool": "perfbench", "runs": [\n' > $$out.tmp; \
	for w in $$workloads; do \
		for run in "1 false" "2 false" "3 false" "1 true"; do \
			set -- $$run; trace=0; [ $$2 = true ] && trace=1; \
			echo "bench-json: $$w seed $$1 trace $$trace ($$secs s)"; \
			res=$$(bash perfbench/run.sh --workload $$w --seed $$1 --seconds $$secs --trace $$trace) || status=1; \
			line=$$(printf '%s\n' "$$res" | tail -n 1); \
			case "$$line" in "{"*) ;; *) echo "bench-json: $$w: no result line" >&2; rm -f $$out.tmp; exit 1;; esac; \
			[ -n "$$sep" ] && printf ',\n' >> $$out.tmp; sep=1; \
			printf '  {"workload": "%s", "seed": %s, "trace": %s, "result": %s}' $$w $$1 $$2 "$$line" >> $$out.tmp; \
		done; \
	done; \
	printf '\n]}\n' >> $$out.tmp; mv $$out.tmp $$out; \
	echo "bench-json: wrote $$out"; exit $$status

# Cross-record regression gate over the committed records: the newest
# BENCH_PR*.json against the one before it, on BENCHMARK.json's bounds,
# with drift since the oldest record reported (see cmd/benchdiff).
bench-diff:
	$(GO) run ./cmd/benchdiff

# Allocation pins, run WITHOUT the race detector (its instrumentation
# perturbs testing.AllocsPerRun): the warm BusPoint path must stay at
# zero allocations, the warm extend path within its budget, a
# population-ascending curve run at O(log n) allocations, and decoding a
# 64-point /v1/sweep body at its measured count.
alloc-check:
	$(GO) test -run 'Alloc' ./internal/core ./internal/sweep ./internal/serve

# Fuzz smoke: every native Go fuzz target in the module (Fuzz* functions
# in *_test.go files) for a fixed 10 s each. A failure leaves the
# crashing input under the package's testdata/fuzz for a regression seed.
fuzz-smoke:
	@for d in $$($(GO) list -f '{{.Dir}}' ./...); do \
		for fz in $$(cat $$d/*_test.go 2>/dev/null | sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p'); do \
			echo "fuzz-smoke: $$d $$fz"; \
			$(GO) test -run='^$$' -fuzz="^$$fz\$$" -fuzztime=10s $$d > /dev/null || exit 1; \
		done; \
	done
	@echo "fuzz-smoke: ok"

# Focused race hammers: the shared-evaluator and shared-server stress
# tests, repeated, under the race detector — the concurrency gate on the
# sharded cache, the singleflight paths, and the batch endpoint fan-out.
race-hammer:
	$(GO) test -race -count=2 \
		-run 'TestEvaluatorConcurrentHammer|TestSingleflightColdKeyRace|TestConcurrentRequestsBitIdentical' \
		./internal/sweep ./internal/serve

# Documentation gate: every exported identifier in the serving stack
# must carry a doc comment (OPERATIONS.md's and SCHEMES.md's drift
# tests run under `test`/`race`, so the whole docs surface is enforced
# by `check`).
docs-check:
	$(GO) run ./cmd/doccheck

# Registry gate: the advisor must rank every registered scheme on the
# Figure-4 workload (paper middle column, 16-processor bus) without
# error — `advise -all` exits nonzero if any bus-capable registration
# is missing from the ranking, so a half-wired protocol (registered
# but failing to evaluate) cannot slip through.
schemes-smoke:
	$(GO) run ./cmd/cohere advise -all -level mid -procs 16 > /dev/null
	@echo "schemes-smoke: ok (every registered scheme ranked)"

# Overload drill: cohereload's chaos mode drives a tiny fault-injected
# daemon with patient and abandoning client fleets, and exits nonzero
# unless admission control shed at least once and the daemon never
# answered 500 (see OPERATIONS.md's overload runbook).
chaos-smoke:
	$(GO) run ./cmd/cohereload -chaos -c 12 -d 1s > /dev/null
	@echo "chaos-smoke: ok (no 500s, shedding observed)"

# Async-job drill: cohereload's jobs mode submits a 20k-point grid job
# against an in-process daemon, streams every NDJSON row, then cancels
# a second job mid-stream and checks it is gone (see OPERATIONS.md's
# job API section). Runs under the race detector: the job runner, the
# spool's back-pressure, and the streaming handler all cross goroutines.
jobs-smoke:
	$(GO) run -race ./cmd/cohereload -jobs > /dev/null
	@echo "jobs-smoke: ok (all rows streamed, cancel verified)"

# Gateway drill: cohereload's gw mode boots two cache-capped in-process
# backends behind the affinity gateway and exits nonzero unless (1)
# affinity routing beats a fresh round-robin control by >= 1.5x on
# aggregate backend cache-hit ratio with p99 within 1.05x, (2) hedging
# cuts an injected latency tail within the 1.10x backend load band, (3)
# a backend killed mid-load never surfaces as a client 500/502, (4) a
# live reload shows no client 5xx, and (5) a snapshot-restarted backend
# serves its old working set with zero new solves (see OPERATIONS.md's
# gateway section). Those gates are defined once, in cmd/cohereload.
gw-smoke:
	$(GO) run ./cmd/cohereload -gw -c 8 -d 1s > /dev/null
	@echo "gw-smoke: ok (affinity wins, failover clean, warm restart verified)"

# The pre-merge gate: vet, the benchmark module's build, the
# race-enabled test run, the repeated concurrency hammers, the
# allocation pins (non-race), the fuzz smoke, the documentation and
# scheme-registry gates, the overload + async-job + gateway drills, and
# the committed benchmark records (bench-diff only reads them).
check: vet perfbench-build race race-hammer alloc-check fuzz-smoke docs-check schemes-smoke chaos-smoke jobs-smoke gw-smoke bench-diff

# Run the model-serving daemon in the foreground.
COHERED_ADDR ?= 127.0.0.1:8080
serve:
	$(GO) run ./cmd/cohered -addr $(COHERED_ADDR)

# End-to-end smoke test: build the daemon, start it on an ephemeral-ish
# port, hit /healthz and one /v1/bus query, then shut it down (SIGTERM
# exercises the graceful-shutdown path).
SMOKE_ADDR ?= 127.0.0.1:18080
smoke:
	@$(GO) build -o /tmp/cohered.smoke ./cmd/cohered
	@/tmp/cohered.smoke -addr $(SMOKE_ADDR) -quiet & pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	for i in $$(seq 1 50); do \
		curl -sf http://$(SMOKE_ADDR)/healthz >/dev/null 2>&1 && break; sleep 0.1; \
	done; \
	curl -sf http://$(SMOKE_ADDR)/healthz || { echo "smoke: healthz failed"; exit 1; }; \
	curl -sf -X POST -d '{"scheme": "dragon", "procs": 8}' http://$(SMOKE_ADDR)/v1/bus \
		| grep -q '"Power"' || { echo "smoke: /v1/bus failed"; exit 1; }; \
	curl -sf -X POST -d '{"points": [{"scheme": "dragon", "procs": 8, "point": true}, {"scheme": "base", "procs": 8, "point": true}]}' \
		http://$(SMOKE_ADDR)/v1/sweep \
		| grep -q '"count":2' || { echo "smoke: /v1/sweep failed"; exit 1; }; \
	kill -TERM $$pid; wait $$pid; \
	echo "smoke: ok"

# Short load-generation run against an in-process daemon: a hit-heavy
# and a miss-heavy mix, p50/p90/p99 to stdout (see OPERATIONS.md's
# latency runbook; LOADGEN_ARGS passes extra cohereload flags, e.g.
# LOADGEN_ARGS='-addr localhost:8080' to load a running daemon).
loadgen:
	$(GO) run ./cmd/cohereload -c 8 -d 2s -hit-ratios 0.95,0.05 $(LOADGEN_ARGS)

# Regenerate every table and figure into artifacts/ (.txt, .csv, .json).
artifacts:
	$(GO) run ./cmd/cohere all -out artifacts

# Run every bundled example.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/compilerstudy
	$(GO) run ./examples/netscaling
	$(GO) run ./examples/validation
	$(GO) run ./examples/lockdesign

# Refresh the pinned analytic outputs after an intentional model change.
golden:
	$(GO) test ./internal/experiments -run TestGolden -update

cover:
	$(GO) test -cover ./...

clean:
	rm -rf artifacts test_output.txt bench_output.txt
