package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/modules/ddp"
	"repro/internal/modules/distsort"
	"repro/internal/modules/hashjoin"
	"repro/internal/modules/kmeans"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/workload"
)

// np is the world size of every mpi workload: tree and ring collectives
// are degenerate below 4 ranks.
const np = 4

// workloadDef is one fixed set of inputs the benchmark runs. The names are
// part of the benchmark's contract (BENCHMARK.json, README.md): later
// issues refer to them.
type workloadDef struct {
	name  string
	why   string
	items int64  // work items one op processes (numerator of items_per_s)
	item  string // what an item is
	setup func(seed int64) (*instance, error)
}

// instance is a workload with its inputs generated and its reference
// result computed. op runs one complete activity — world launch,
// module call, teardown, verification — and returns an error when the
// activity errored, produced a wrong result or left the regime the
// workload is meant to measure. rec is nil on untraced ops.
type instance struct {
	op  func(rec *opRec) error
	gen time.Duration // time spent in the input generators
	// regime, when set, is asked once after the measured ops whether
	// the run as a whole stayed in the regime the workload is here for.
	regime func() error
}

var workloads = []workloadDef{
	{
		name:  "kmeans-chan",
		why:   "150 small blocking Allreduces per op: the eager small-message path and collectives.go over channels; bypasses tcp, icoll, rma, cluster",
		items: kmPoints * kmIters, item: "point-assignments",
		setup: func(seed int64) (*instance, error) { return setupKmeans(seed, false) },
	},
	{
		name:  "kmeans-tcp",
		why:   "controlled pair with kmeans-chan: only the transport differs, so the channel-to-TCP gap shows here and must not move kmeans-chan",
		items: kmPoints * kmIters, item: "point-assignments",
		setup: func(seed int64) (*instance, error) { return setupKmeans(seed, true) },
	},
	{
		name:  "sort-chan",
		why:   "same mpi layer used the other way: a few ~0.5 MB rendezvous messages, large pool classes, marshal/copy bandwidth, plus local sort compute",
		items: sortKeys, item: "keys",
		setup: setupSort,
	},
	{
		name:  "join-rma",
		why:   "one-sided path (CAS reserve, batched Put, Fence) for the build, point-to-point exchange for the probe, and the allocation-heavy hash build",
		items: 2 * joinTuples, item: "tuples",
		setup: setupJoin,
	},
	{
		name:  "ddp-chan",
		why:   "the nonblocking engine (Iallreduce buckets, MPI_Wait_coll) and typed reduce kernels; bypasses the blocking collectives kmeans-chan uses",
		items: ddpSteps * ddpBatch * np, item: "samples",
		setup: setupDDP,
	},
	{
		name:  "drain-stream",
		why:   "scheduler below saturation (~65% util, ~70 jobs live): generator, submit and heap pop dominate, the scheduling pass is trivial; bypasses mpi",
		items: streamJobs, item: "jobs",
		setup: func(seed int64) (*instance, error) { return setupDrain(seed, streamDrain) },
	},
	{
		name:  "drain-knee",
		why:   "same cluster layer at the backfill knee: the pending queue is deep and the backfill scan dominates, so a queue change that helps streaming but hurts the scan shows",
		items: kneeJobs, item: "jobs",
		setup: func(seed int64) (*instance, error) { return setupDrain(seed, kneeDrain) },
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runWorld launches body on np ranks exactly as modulerun does — mpi.Run
// or mpi.RunTCP around the module call — and, on traced ops, wraps it
// in spans and attaches the harness's hook.
func runWorld(tcp bool, rec *opRec, body func(c *mpi.Comm) error) error {
	launch := mpi.Run
	if tcp {
		launch = mpi.RunTCP
	}
	if rec == nil {
		return launch(np, body)
	}
	return rec.world(launch, body)
}

// ---- kmeans-chan, kmeans-tcp ----

const (
	kmPoints = 8192
	kmIters  = 150
)

func setupKmeans(seed int64, tcp bool) (*instance, error) {
	t0 := time.Now()
	pts, _ := data.GaussianMixture(kmPoints, 2, 8, 2.0, 100, seed)
	gen := time.Since(t0)
	// Tol=-1 never converges, so every op does exactly kmIters
	// iterations whatever the seed.
	cfg := kmeans.Config{K: 16, MaxIter: kmIters, Tol: -1, Option: kmeans.WeightedMeans, Seed: seed}
	ref, _, err := kmeans.Sequential(pts, cfg)
	if err != nil {
		return nil, err
	}
	var first []float64 // centroids of the first op: every later op must repeat them bit for bit
	op := func(rec *opRec) error {
		var res [np]kmeans.Result
		err := runWorld(tcp, rec, func(c *mpi.Comm) error {
			r, _, _, err := kmeans.Distributed(c, pts, cfg)
			res[c.Rank()] = r
			return err
		})
		if err != nil {
			return err
		}
		var compute, comm time.Duration
		for r := range res {
			if res[r].Iterations != kmIters {
				return fmt.Errorf("regime: rank %d ran %d iterations, want %d", r, res[r].Iterations, kmIters)
			}
			if !sameBits(res[r].Centroids.Coords, res[0].Centroids.Coords) {
				return fmt.Errorf("rank %d centroids differ from rank 0", r)
			}
			compute = max(compute, res[r].ComputeDur)
			comm = max(comm, res[r].CommDur)
		}
		got := res[0].Centroids.Coords
		if len(got) != len(ref.Centroids.Coords) {
			return fmt.Errorf("%d centroid coordinates, want %d", len(got), len(ref.Centroids.Coords))
		}
		for i, v := range got {
			if math.Abs(v-ref.Centroids.Coords[i]) > 1e-9 {
				return fmt.Errorf("centroid coordinate %d = %v, sequential reference %v", i, v, ref.Centroids.Coords[i])
			}
		}
		if first == nil {
			first = append(first, got...)
		} else if !sameBits(got, first) {
			return errors.New("centroids differ from the first op")
		}
		rec.add("kmeans.compute_ms_per_op", ms(compute))
		rec.add("kmeans.comm_ms_per_op", ms(comm))
		return nil
	}
	return &instance{op: op, gen: gen}, nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// ---- sort-chan ----

const sortKeys = 1_000_000

// bitSum is an order-independent, exact checksum of a key set: the
// wrapping sum of the keys' bit patterns.
func bitSum(keys []float64) uint64 {
	var s uint64
	for _, k := range keys {
		s += math.Float64bits(k)
	}
	return s
}

func setupSort(seed int64) (*instance, error) {
	t0 := time.Now()
	keys := data.ExponentialKeys(sortKeys, 1, seed)
	gen := time.Since(t0)
	var locals [np][]float64
	for i, k := range keys {
		locals[i%np] = append(locals[i%np], k)
	}
	want := bitSum(keys)
	op := func(rec *opRec) error {
		var (
			res    [np]distsort.Result
			sorted [np]bool
			sums   [np]uint64
		)
		err := runWorld(false, rec, func(c *mpi.Comm) error {
			r := c.Rank()
			mine, sr, err := distsort.Sort(c, locals[r], distsort.Histogram)
			if err != nil {
				return err
			}
			res[r], sums[r] = sr, bitSum(mine)
			sorted[r], err = distsort.VerifyDistributedSorted(c, mine)
			return err
		})
		if err != nil {
			return err
		}
		var n int
		var sum uint64
		var exchange, sortDur time.Duration
		for r := range res {
			if !sorted[r] {
				return fmt.Errorf("rank %d: output not globally sorted", r)
			}
			n += res[r].SortedN
			sum += sums[r]
			exchange = max(exchange, res[r].ExchangeDur)
			sortDur = max(sortDur, res[r].SortDur)
		}
		if n != sortKeys || sum != want {
			return fmt.Errorf("keys not preserved: %d keys checksum %x, want %d checksum %x", n, sum, sortKeys, want)
		}
		if imb := res[0].Imbalance; imb > 1.1 {
			return fmt.Errorf("regime: bucket imbalance %.3f > 1.1", imb)
		}
		rec.add("distsort.exchange_ms_per_op", ms(exchange))
		rec.add("distsort.sort_ms_per_op", ms(sortDur))
		rec.add("distsort.imbalance", res[0].Imbalance)
		return nil
	}
	return &instance{op: op, gen: gen}, nil
}

// ---- join-rma ----

const (
	joinTuples   = 300_000 // per relation
	joinKeyRange = 60_000
)

func setupJoin(seed int64) (*instance, error) {
	t0 := time.Now()
	rng := rand.New(rand.NewSource(seed))
	var build, probe [np][]hashjoin.Tuple
	var allBuild, allProbe []hashjoin.Tuple
	for i := 0; i < joinTuples; i++ {
		b := hashjoin.Tuple{Key: rng.Int63n(joinKeyRange), Payload: int64(i)}
		p := hashjoin.Tuple{Key: rng.Int63n(joinKeyRange), Payload: int64(i)}
		build[i%np] = append(build[i%np], b)
		probe[i%np] = append(probe[i%np], p)
		allBuild, allProbe = append(allBuild, b), append(allProbe, p)
	}
	gen := time.Since(t0)
	want := int64(len(hashjoin.Sequential(allBuild, allProbe)))
	return &instance{op: joinOp(build, probe, want), gen: gen}, nil
}

// joinOp is split from setupJoin so the self-test can hand it a wrong
// reference count and watch every op fail.
func joinOp(build, probe [np][]hashjoin.Tuple, want int64) func(rec *opRec) error {
	return func(rec *opRec) error {
		var res [np]hashjoin.Result
		err := runWorld(false, rec, func(c *mpi.Comm) error {
			r := c.Rank()
			_, jr, err := hashjoin.JoinRMA(c, build[r], probe[r])
			res[r] = jr
			return err
		})
		if err != nil {
			return err
		}
		var local int64
		var part, bld, prb time.Duration
		for r := range res {
			local += int64(res[r].LocalMatches)
			part = max(part, res[r].PartitionDur)
			bld = max(bld, res[r].BuildDur)
			prb = max(prb, res[r].ProbeDur)
		}
		if res[0].Matches != want || local != want {
			return fmt.Errorf("%d matches (%d summed over ranks), sequential reference %d", res[0].Matches, local, want)
		}
		rec.add("hashjoin.partition_ms_per_op", ms(part))
		rec.add("hashjoin.build_ms_per_op", ms(bld))
		rec.add("hashjoin.probe_ms_per_op", ms(prb))
		rec.add("hashjoin.imbalance", res[0].Imbalance)
		return nil
	}
}

// ---- ddp-chan ----

const (
	ddpSteps = 12
	ddpBatch = 4 // per rank
)

func setupDDP(seed int64) (*instance, error) {
	layers := []int{64}
	for i := 0; i < 12; i++ {
		layers = append(layers, 128)
	}
	layers = append(layers, 16)
	cfg := ddp.Config{
		Layers: layers, BatchPerRank: ddpBatch, Steps: ddpSteps,
		BucketBytes: 128 << 10, Overlap: true, Seed: seed,
	}
	// Reference: the same training with every bucket waited for at its
	// flush. Overlap must not change a single bit.
	var ref []float64
	seqCfg := cfg
	seqCfg.Overlap = false
	err := mpi.Run(np, func(c *mpi.Comm) error {
		r, err := ddp.Train(c, seqCfg)
		if c.Rank() == 0 {
			ref = r.FinalFlat
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	op := func(rec *opRec) error {
		var res [np]ddp.Result
		err := runWorld(false, rec, func(c *mpi.Comm) error {
			r, err := ddp.Train(c, cfg)
			res[c.Rank()] = r
			return err
		})
		if err != nil {
			return err
		}
		for r := range res {
			if !sameBits(res[r].FinalFlat, ref) {
				return fmt.Errorf("rank %d final parameters differ from the Overlap=false reference", r)
			}
		}
		if res[0].Buckets <= 1 {
			return fmt.Errorf("regime: %d gradient bucket(s), nothing to overlap", res[0].Buckets)
		}
		rec.add("ddp.step_ms", ms(res[0].PerStep))
		rec.add("ddp.buckets", float64(res[0].Buckets))
		return nil
	}
	return &instance{op: op}, nil
}

// ---- drain-stream, drain-knee ----

const (
	streamJobs = 100_000
	kneeJobs   = 20_000
)

type drainCfg struct {
	spec  string
	mult  float64 // arrival-rate multiplier
	jobs  int
	nodes int
	// Regime guards: a run whose simulated workload left these ranges
	// measured something other than what the workload is here for.
	maxPeakLive    int     // per op
	waitLo, waitHi float64 // mean over the run's ops of mean wait / mean runtime; 0,0 = unchecked
}

var (
	// The TestMillionJobDrain spec at a tenth of its length; streaming
	// means the live set stays under 1% of the jobs.
	streamDrain = drainCfg{
		spec: "poisson:2500/h;runtime=exp:60s,30m;tasks=fixed:4", mult: 1, jobs: streamJobs, nodes: 8,
		maxPeakLive: streamJobs / 100,
	}
	// The EXPERIMENTS.md saturation-study spec just below its backfill
	// knee (x0.139): deep pending queue, still draining.
	kneeDrain = drainCfg{
		spec: "poisson:1200/h;runtime=pareto:1.5,30s,30m;tasks=zipf:64,1.15;timelimit=4x", mult: 0.13, jobs: kneeJobs, nodes: 2,
		maxPeakLive: kneeJobs, waitLo: 1.5, waitHi: 3.5,
	}
)

func waitOverRuntime(st cluster.WorkloadStats) float64 {
	if st.MeanRuntime == 0 {
		return 0
	}
	return float64(st.MeanWait) / float64(st.MeanRuntime)
}

// streamsPerSeed spaces the generator seeds of consecutive -seed values.
const streamsPerSeed = 1_000_003

func setupDrain(seed int64, cfg drainCfg) (*instance, error) {
	spec, err := workload.Parse(cfg.spec)
	if err != nil {
		return nil, err
	}
	// Every untraced op pumps its own job stream, and a traced op repeats
	// the stream of the untraced op before it. At the knee one stream's
	// cost is an accident of its heaviest jobs (300 streams: 75..123 ms,
	// 1.6M..3.0M allocations, wait/runtime 1.6..3.5), so a run measures
	// the mix, and the knee guard holds the mix's mean, not each stream.
	var stream int64
	var waitSum float64
	var waitN int
	op := func(rec *opRec) error {
		if rec == nil {
			stream++
		}
		c, err := cluster.New(cfg.nodes, perfmodel.DefaultMachine())
		if err != nil {
			return err
		}
		c.SetPolicy(cluster.PolicyBackfill)
		c.SetBackfillLimit(workload.DefaultBackfillLimit)
		c.SetRetainFinished(false)
		g := workload.NewGenerator(spec, seed*streamsPerSeed+stream)
		g.SetRateMultiplier(cfg.mult)
		var res workload.RunResult
		if rec == nil {
			res, err = workload.Run(c, g, cfg.jobs)
		} else {
			res, err = rec.pump(c, g, cfg.jobs)
		}
		if err != nil {
			return err
		}
		st := res.Stats
		finished := st.Completed + st.TimedOut + st.Cancelled + st.NodeFailed
		if st.Jobs != cfg.jobs || finished != cfg.jobs {
			return fmt.Errorf("%d jobs submitted, %d finished, want %d", st.Jobs, finished, cfg.jobs)
		}
		if live := c.LiveJobs(); live != 0 {
			return fmt.Errorf("%d jobs still live after drain", live)
		}
		if err := c.CheckInvariants(); err != nil {
			return err
		}
		if res.PeakLive >= cfg.maxPeakLive {
			return fmt.Errorf("regime: peak live jobs %d, want < %d", res.PeakLive, cfg.maxPeakLive)
		}
		waitSum += waitOverRuntime(st)
		waitN++
		rec.add("cluster.events_per_op", float64(res.Events))
		rec.add("cluster.stale", float64(res.Stale))
		rec.add("cluster.peak_live", float64(res.PeakLive))
		rec.add("cluster.wait_over_runtime", waitOverRuntime(st))
		return nil
	}
	regime := func() error {
		if w := waitSum / float64(waitN); cfg.waitHi > 0 && (w < cfg.waitLo || w > cfg.waitHi) {
			return fmt.Errorf("regime: mean wait / mean runtime = %.2f over %d ops, want %.1f..%.1f (not at the knee)",
				w, waitN, cfg.waitLo, cfg.waitHi)
		}
		return nil
	}
	return &instance{op: op, regime: regime}, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
