# Development entry points; CI (.github/workflows/ci.yml) runs the same
# commands.

GO ?= go

.PHONY: build test race wait-poll chaos chaos-resume chaos-campaign fuzz fuzz-nest fuzz-wal \
	bench-smoke iter-bench alloc-gate \
	diffcheck-gate diffcheck-soak autopar-gate lint lint-selftest inline-gate loc layout reach vet all

all: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...
	cd bench && $(GO) test ./...

race:
	$(GO) test -race -count=1 ./internal/...

# The two-phase mailbox wait (transport.Endpoint.Wait polls, then parks):
# the runtime packages at one processor, where the poll's gate stays shut
# and no poller may starve a rank, then the poll tests 20 times under -race.
wait-poll:
	GOMAXPROCS=1 $(GO) test -count=1 -timeout 5m \
		./internal/transport ./internal/mpi ./internal/cluster ./internal/stencil
	$(GO) test -race -count=20 -timeout 5m -run TestWaitPoll ./internal/transport/

# The fault-injection suites, run fresh (no test cache) with a deadline:
# the failure mode they exist to catch is a hang. The farmed stencil's
# rollback (workers killed holding resident slabs) runs under -race, Op's
# slab release (failed runs, two sessions on one op) 20 times under it, the
# failure ladder through both farm clients and the paused rank's retirement on
# the fabric clock 50 times over each, and the reliable layer's tail probe
# (owner and Serving helper, one mutex) 50 times under -race.
chaos:
	$(GO) test -count=1 -timeout 5m \
		-run 'Fault|Reliable|Chaos|Crash|Farm' \
		./internal/transport/ ./internal/mpi/ ./internal/cluster/ \
		./internal/parboil/sgemm/ ./internal/parboil/tpacf/
	$(GO) test -count=20 -timeout 5m \
		-run 'TestSessionIdenticalResultsUnderFaults|TestTeardown' ./internal/cluster/
	$(GO) test -race -count=1 -timeout 5m -run 'Rollback|Chaos' ./internal/stencil/
	$(GO) test -race -count=20 -timeout 5m -run TestOpRelease ./internal/stencil/
	$(GO) test -count=50 -timeout 5m -run TestLadderRungByRungThroughBothClients ./internal/diffcheck/
	$(GO) test -count=50 -timeout 5m -run TestFarmPausedRankRetiredAndLateRepliesIgnored ./internal/cluster/
	$(GO) test -race -count=50 -timeout 5m -run TestReliableTailProbe ./internal/mpi/

# The checkpoint/resume suites under -race: a master killed mid-farm, the
# WAL reopened by a fresh session, results bit-identical to an undisturbed
# run — for the farm, the farmed stencil and the job service, sampled under
# chaos and enumerated at every durable write (CrashPoint) — plus the
# cancellation-latency tests they depend on.
chaos-resume:
	$(GO) test -race -count=1 -timeout 5m \
		-run 'Resume|Quarantine|Heartbeat|Cancel|Ctx|CrashPoint' \
		./internal/cluster/ ./internal/parboil/sgemm/ \
		./internal/transport/ ./internal/mpi/ ./internal/stencil/ \
		./internal/jobs/ ./internal/diffcheck/

# The multi-tenant job-service acceptance gate (TestChaosCampaignGate)
# under -race: concurrent jobs with one poison-heavy tenant on a 2%-fault
# fabric, mid-flight master kills resumed bit-identically from the WAL with
# no task re-executed, bounded-wait fairness, and fast typed admission
# rejection. Size with CAMPAIGN_JOBS / CAMPAIGN_TASKS / CAMPAIGN_KILLS (the
# nightly runs it full-size, without -race).
chaos-campaign:
	$(GO) test -race -count=1 -timeout 10m -run ChaosCampaign ./internal/jobs/

# 30-second fuzz smokes over the decoders at a trust boundary: the serial
# slice, record and matrix codecs, the farm engine's task/result frames, the reliable layer's
# frames (any record list under a valid CRC), the farmed stencil's task
# frames, the job service's specs (HTTP body, registry records) and the
# differential oracle's chunk tasks — plus the stream and ConcatMap nests
# against their per-element reference.
fuzz:
	$(GO) test -fuzz=FuzzSliceDecoders -fuzztime=30s ./internal/serial
	$(GO) test -fuzz=FuzzRecordCodec -fuzztime=30s ./internal/serial
	$(GO) test -fuzz=FuzzMatrixCodec -fuzztime=30s ./internal/serial
	$(GO) test -fuzz=FuzzMuxFrames -fuzztime=30s ./internal/cluster
	$(GO) test -fuzz=FuzzReliableFrames -fuzztime=30s ./internal/mpi
	$(GO) test -fuzz=FuzzFarmOpTask -fuzztime=30s ./internal/stencil
	$(GO) test -fuzz=FuzzJobSpec -fuzztime=30s ./internal/jobs
	$(GO) test -fuzz=FuzzDecodeChunkTask -fuzztime=30s ./internal/diffcheck
	$(GO) test -fuzz=FuzzStreamNest -fuzztime=30s ./internal/iter
	$(GO) test -fuzz=FuzzConcatMapNest -fuzztime=30s ./internal/iter

# Fuzz the nests alone: stream nests, then ConcatMap nests, 30 s each.
fuzz-nest:
	$(GO) test -fuzz=FuzzStreamNest -fuzztime=30s ./internal/iter
	$(GO) test -fuzz=FuzzConcatMapNest -fuzztime=30s ./internal/iter

# Fuzz the checkpoint WAL decoder: arbitrary bytes must yield a valid
# prefix, never a panic or a runaway allocation.
fuzz-wal:
	$(GO) test -fuzz=FuzzWALRecords -fuzztime=30s ./internal/checkpoint

# The repository benchmark (BENCHMARK.json, bench/) as a smoke test: one rep
# per workload with every output check on, ~10 s. Builds into .bench_build/.
bench-smoke:
	bash bench/run.sh -quick

# The six internal/iter benchmarks (pipeline beside its hand-written twin),
# six samples each with allocations: the raw ns/op and allocs/op behind
# bench/'s iter.*.vs_raw ratios, read in alternated parent/change rounds.
# Gates nothing: the ratios move with code layout and host state, and a
# lost fast path fails TestFastPathPins instead.
iter-bench:
	$(GO) test -run '^$$' -bench . -benchmem -count=6 ./internal/iter/

# Steady-state allocation gate: AllocsPerRun proofs over the block
# engine's fast paths and stream nests, the core skeletons' merge steps,
# cutcp's pipeline (O(1) in atoms), the stencil sweep, the mailbox wait, a
# direct receive under a cancellable context, the reliable layer's eager
# send and coalesced-frame decode, a duplicate data frame acked with no copy
# of its payload, Serving's standing helper switched on and off, the farm
# engine's idle-slot list, the serial decode into a caller's slice, and the
# exact-size farm frames and a farmed-stencil solve's byte budget (must run
# without -race; the detector instruments allocations).
alloc-gate:
	$(GO) test -count=1 -timeout 5m \
		-run 'ZeroAllocs|Allocs|Arena|Presize' \
		./internal/iter/ ./internal/core/ ./internal/parboil/cutcp/ ./internal/stencil/ \
		./internal/transport/ ./internal/mpi/ ./internal/cluster/ ./internal/serial/

# The cross-mode differential oracle's fast subset (ci.yml runs this on
# every push): all four mode axes, seconds of wall time.
diffcheck-gate:
	$(GO) test -count=1 -timeout 5m -run Gate ./internal/diffcheck/

# The nightly deep soak: long random pipeline streams through the full
# mode matrix under -race. Tune with DIFFCHECK_SOAK / DIFFCHECK_SOAK_SEED.
diffcheck-soak:
	DIFFCHECK_SOAK=$${DIFFCHECK_SOAK:-200} $(GO) test -race -count=1 -timeout 60m -v \
		-run Soak ./internal/diffcheck/

# AutoPar acceptance sweep: planner-mapped runs vs the best hand-tuned
# 1-8 node configuration, each port planned once from a fresh calibration.
# CI uses a relaxed bound for shared runners (AUTOPAR_BOUND=1.25); the
# nightly and local runs enforce the paper's 10%.
autopar-gate:
	$(GO) run ./cmd/triolet-bench -autopar-sweep \
		-autopar-bound $${AUTOPAR_BOUND:-1.10} -cores 2

# The repo's own analyzer suite: clock-injection, kernel-purity,
# shared-buffer-aliasing, float-determinism, and message-tag contracts
# (DESIGN.md §12). golangci-lint, when installed, adds the generic checks
# on top; triolet-lint is the gate CI enforces (lint-gate job).
lint:
	$(GO) run ./cmd/triolet-lint ./...
	@if command -v golangci-lint >/dev/null 2>&1; then golangci-lint run; fi

# Prove each analyzer still catches an injected violation of its contract.
lint-selftest:
	./scripts/lint-selftest.sh

# stencil.Neighborhood.At must stay inside the compiler's inlining budget:
# the regression (a branch in At) is silent everywhere else and costs 3x.
inline-gate:
	./scripts/inline-gate.sh

# Non-test Go lines per internal/* package (the roadmap's "lines go down"
# criteria are read off this table; `./scripts/loc.sh -base <git-ref>` adds
# each package's delta against that ref).
loc:
	./scripts/loc.sh

# Code layout of bench's perfbench against BASE (default HEAD): symbols on
# one side only, address deltas by region with their mod-64 class, and the
# sentinel kernels' deltas. Gates nothing; `make layout BASE=<git-ref>`.
BASE ?= HEAD
layout:
	./scripts/layout.sh -base $(BASE)

# Exported internal/ functions and methods that no main (cmd/*, examples/*,
# bench's perfbench) links. Gates nothing.
reach:
	./scripts/reach.sh
