# Convenience targets for the reproduction. Everything is pure-stdlib Go;
# no external dependencies.

GO ?= go

# The MPI runtime benchmarks whose allocation profile the zero-copy data
# path guards (EXPERIMENTS.md records their baselines).
MPI_BENCHES = BenchmarkModule1_PingPong|BenchmarkAblation_Transports|BenchmarkAblation_AllreduceAlgorithms|BenchmarkAblation_EagerVsRendezvous

# The one-sided (RMA) microbenchmarks: Put/Get latency across the eager
# boundary, the amortized cost of batched Puts, fence epoch
# cost, and the RMA-vs-two-sided hash-join build (EXPERIMENTS.md records
# their baselines in BENCH_rma.json).
RMA_BENCHES = BenchmarkRMA_PutLatency|BenchmarkRMA_BatchedPut|BenchmarkRMA_GetLatency|BenchmarkRMA_EpochSync|BenchmarkRMA_HashJoinBuild

# The nonblocking-collective / DDP overlap benchmarks: the emulated
# interconnect training study (overlapped vs sequential flush schedule,
# ZeRO-1, raw-loopback baselines) and the Iallreduce payload sweep
# (EXPERIMENTS.md records their baselines in BENCH_ddp.json).
DDP_BENCHES = BenchmarkDDP_Step|BenchmarkIallreduce

# The event-core benchmarks: the heap engine at 10k/100k/1M generated
# jobs against the seed's linear-scan baseline at 10k (BENCH_cluster.json;
# EXPERIMENTS.md records the events/sec ratio, and the one-off 100k
# linear figure — O(n²), nine minutes a drain) — and the placement of
# jobs spanning 1 to 256 nodes of a 256-node cluster.
CLUSTER_BENCHES = BenchmarkClusterDrain|BenchmarkClusterDrainLinear|BenchmarkPlaceWide

# The chaos soak's seed sweep. `make chaos` defaults to a wider fixed
# sweep than the in-tree default ({1,2}); override with
# CHAOS_SEEDS=5,6,7 make chaos.
CHAOS_SEEDS ?= 1,2,3,4,5,6,7,8,9,10,11,12

.PHONY: all build test race bench bench-all bench-compare bench-e2e check chaos faults flake fuzz report examples metrics-demo clean

all: build test

# The full static + dynamic gate: vet, the race-enabled test suite, the
# whole suite again on a 32-bit host (386 binaries run natively on
# amd64; there int and uint take the codec's element-wise path), vet
# for arm64 and the big-endian s390x (these compile but cannot run on an
# amd64 host), the allocation-regression tests, the fault-tolerance
# matrix, the chaos soak, and a one-iteration bench smoke of the MPI
# benchmarks under the race detector.
check: faults chaos
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=s390x $(GO) vet ./...
	$(GO) test -race ./...
	GOARCH=386 $(GO) test ./...
	$(GO) test -run 'TestAlloc|TestEvent' ./internal/telemetry
	$(GO) test -race -run NONE -bench '$(MPI_BENCHES)' -benchtime=1x .
	$(GO) test -race -run NONE -bench '$(RMA_BENCHES)' -benchtime=1x .
	$(GO) test -race -run NONE -bench '$(DDP_BENCHES)' -benchtime=1x .
	$(GO) test -run 'TestAllocSchedulePass|TestAllocRetainedDrain|TestAllocJoin|TestAllocLocalKernels|TestAllocSort|TestAllocRadixScratch|TestAllocKmeansSteady|TestAllocFreeEagerPingPong|TestAllocTCPLaunch|TestAllocStackBuffer|TestAllocCodec|TestAllocRMA|TestAllocTreeAllreduceBound|TestAllocReleaseOptional|TestAllocIallreduceSteady|TestAllocDDP|TestAllocMLP|TestAllocNewTrainer' ./internal/cluster ./internal/workload ./internal/modules/hashjoin ./internal/modules/distsort ./internal/modules/kmeans ./internal/modules/ddp ./internal/mpi
	$(GO) test -run 'TestHelpGolden' ./cmd/sbatch ./cmd/modulerun
	$(GO) run ./cmd/sbatch -workload "poisson:600/h;runtime=exp:60s;tasks=fixed:8" -njobs 100000 -nodes 4

# The chaos soak: for each seed, derive a randomized fault plan (rank
# kills × frame drop/dup/corrupt/reorder) and drive the module ×
# transport matrix through it, asserting bit-identical results on every
# surviving rank (or the one licensed typed error) with no goroutine or
# pool-buffer leaks. Fixed seeds keep the sweep reproducible.
chaos:
	CHAOS_SEEDS=$(CHAOS_SEEDS) $(GO) test -race -count=1 ./internal/chaos

# The fault-tolerance matrix: seeded deterministic injection across the
# runtime (kill/shrink/agree/respawn, the forced double-kill recovery
# races, frame faults, a hostile mesh hello, a malformed address table,
# abort propagation in every launch mode and across the Worlds of a split
# world, the deadlock verdict, which stops the world through the same
# abort path, every path that discards or gives up on an envelope
# carrying a lent send buffer, the link stack built without a World under
# a seeded drop/dup/corrupt/reorder plan), the resilient demo under its double-kill plan,
# checkpoint/restart and respawn bit-identity, and the scheduler's
# node-failure/requeue path — all under the race detector.
faults:
	$(GO) vet ./...
	$(GO) test -race -run 'TestFault|TestAgree|TestShrink|TestRespawn|TestRecovery|TestFrame|TestBadHello|TestBadAddrTable|TestSplitWorld|TestAbortPropagation|TestMultiProcessAbortPropagates|TestOpTimeout|TestWatchdogDiagnostic|TestAllocHygiene|TestRMAPutToFailedRank|TestLentDiscardPaths|TestHookOneCallOneEvent|TestDeadlock|TestLinkStackWithoutWorld' ./internal/mpi
	$(GO) test -race -run 'TestResilient' ./cmd/mpirun
	$(GO) test -race ./internal/faults ./internal/ckpt
	$(GO) test -race -run 'TestRestart|TestRespawn|TestSortCheckpoint|TestSortRestart|TestSortResilient' ./internal/modules/kmeans ./internal/modules/distsort ./internal/modules/ddp
	$(GO) test -race -run 'TestNodeFail|TestRequeue|TestScheduledNodeFail|TestFailNode|TestBackoff|FuzzClusterFaultOps' ./internal/cluster

# Flake hunt: the concurrency-heavy packages twenty times over under the
# race detector. Every test is deterministic by seed, so one failure in
# twenty is a bug, not noise. distsort is here because its exchange lays
# the bucket out by source rank: the arrival order must not matter; the
# chaos soak because its double-kill plans once lost recovery races;
# prof for its message-flow timestamps and telemetry for pages written
# while ranks observe.
flake:
	$(GO) test -race -count=20 ./internal/mpi ./internal/modules/ddp ./internal/modules/distsort ./internal/chaos ./internal/prof ./internal/telemetry

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# MPI runtime benchmarks with allocation stats, converted to
# deterministic JSON (sorted names, fixed key order) so the committed
# baselines diff cleanly between runs. BENCH_DIR moves the four files
# (bench-compare writes them to a temporary directory).
BENCH_DIR ?= .
bench:
	$(GO) test -run NONE -bench '$(MPI_BENCHES)' -benchmem -count=1 . | $(GO) run ./cmd/benchjson > $(BENCH_DIR)/BENCH_mpi.json
	$(GO) test -run NONE -bench '$(RMA_BENCHES)' -benchmem -count=1 . | $(GO) run ./cmd/benchjson > $(BENCH_DIR)/BENCH_rma.json
	$(GO) test -run NONE -bench '$(DDP_BENCHES)' -benchmem -count=1 . | $(GO) run ./cmd/benchjson > $(BENCH_DIR)/BENCH_ddp.json
	$(GO) test -run NONE -bench '$(CLUSTER_BENCHES)' -benchmem -count=1 ./internal/cluster | $(GO) run ./cmd/benchjson > $(BENCH_DIR)/BENCH_cluster.json

# Regenerate the four BENCH files into a temporary directory and compare
# each with the committed one (`benchjson -compare`: a missing row, an
# allocs/op rise past 5 % or a B/op rise past 10 % and 32 KiB fails;
# ns/op is printed only). It stays out of `check` for now: it takes about
# 90 s, and a few rows are not yet deterministic: on one commit
# Iallreduce/512KiB reads 3 or 4 allocs/op and DDP_Step's B/op moves by
# up to 22 KiB (the pool-miss lottery of ROADMAP item 6), so the gate
# would flake on an unchanged tree.
bench-compare:
	@dir=$$(mktemp -d) && $(MAKE) --no-print-directory bench BENCH_DIR=$$dir && \
	status=0; for f in mpi rma ddp cluster; do \
		echo "== BENCH_$$f.json"; \
		$(GO) run ./cmd/benchjson -compare BENCH_$$f.json $$dir/BENCH_$$f.json || status=1; \
	done; rm -rf $$dir; exit $$status

bench-all:
	$(GO) test -bench=. -benchmem ./...

# The repo's end-to-end benchmark (BENCHMARK.json): seven whole-activity
# workloads, ten seconds each. Add `-trace` by hand for the per-layer
# ledger; bench/README.md has the flags.
bench-e2e:
	$(GO) run ./bench -workload all

# Short fuzz pass over every fuzz target (regression corpora always run
# under plain `make test`).
fuzz:
	$(GO) test ./internal/mpi -fuzz=FuzzReadFrame -fuzztime=10s
	$(GO) test ./internal/mpi -fuzz=FuzzUnmarshalFloat64 -fuzztime=10s
	$(GO) test ./internal/mpi -fuzz=FuzzCodec -fuzztime=10s
	$(GO) test ./internal/mpi -fuzz=FuzzRMAFrame -fuzztime=10s
	$(GO) test ./internal/mpi -fuzz=FuzzRMABatchFrame -fuzztime=10s
	$(GO) test ./internal/mpi -fuzz=FuzzReliableFrame -fuzztime=10s
	$(GO) test ./internal/cluster -fuzz=FuzzParseScript -fuzztime=10s
	$(GO) test ./internal/cluster -fuzz=FuzzClusterFaultOps -fuzztime=10s
	$(GO) test ./internal/cluster -fuzz=FuzzScheduleTwin -fuzztime=10s
	$(GO) test ./internal/workload -fuzz=FuzzWorkloadSpec -fuzztime=10s
	$(GO) test ./internal/modules/distsort -fuzz=FuzzEquiDepthBoundaries -fuzztime=10s
	$(GO) test ./internal/modules/distsort -fuzz=FuzzRadixScratch -fuzztime=10s
	$(GO) test ./internal/modules/distsort -fuzz=FuzzBucketOf -fuzztime=10s
	$(GO) test ./internal/modules/hashjoin -fuzz=FuzzFlatTable -fuzztime=10s
	$(GO) test ./internal/modules/kmeans -fuzz=FuzzNearest -fuzztime=10s

# Regenerate every table and figure of the paper.
report:
	$(GO) run ./cmd/evalreport -all

# Live-telemetry walkthrough: a multi-rank run with per-rank /metrics +
# pprof endpoints and the Finalize-time cross-rank merge, then the
# scheduler's gauge endpoint on a demo workload.
metrics-demo:
	$(GO) run ./cmd/mpirun -np 4 -metrics-addr 127.0.0.1:0 pi
	$(GO) run ./cmd/modulerun -activity kmeans-weighted-means -metrics
	$(GO) run ./cmd/sbatch -demo backfill -metrics

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/sortpipeline
	$(GO) run ./examples/wordcount
	$(GO) run ./examples/clustering
	$(GO) run ./examples/stencil
	$(GO) run ./examples/asteroids

clean:
	$(GO) clean ./...
