// Package ddp is the distributed data-parallel training module: every
// rank holds a full replica of a dense MLP, computes gradients on its
// own shard of the batch, and the replicas are kept in lockstep by
// collective communication. It teaches the overlap idea behind
// production DDP frameworks: gradients are packed into size-capped
// buckets in reverse layer order, and each bucket's Iallreduce is
// initiated the moment backward finishes its last layer — so the rings
// run in the background while backward keeps computing lower layers.
//
// Two synchronization strategies share all of the numerics:
//
//   - DDP: Iallreduce every gradient bucket, then apply momentum SGD to
//     the full replica on every rank.
//   - ZeRO-1: ReduceScatter each bucket (rank r receives the fully
//     reduced shard r), update only that shard — the optimizer state is
//     sharded np-ways, the memory saving of ZeRO stage 1 — and
//     Iallgather the updated parameters back to every replica.
//
// Because the runtime's ReduceScatterInto uses the exact ring schedule
// and fold order of Iallreduce's reduce-scatter phase, the two
// strategies — and overlapped vs sequential communication — produce
// bit-identical parameters, which the tests assert with exact equality.
package ddp

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/ckpt"
	"repro/internal/mpi"
)

// Config parameterizes a training run. The zero value of any field falls
// back to the default noted on it.
type Config struct {
	Layers       []int   // neurons per layer, first=input dim, last=output dim (default [64 128 128 128 10])
	BatchPerRank int     // samples per rank per step (default 8)
	Steps        int     // optimizer steps (default 20)
	LR           float64 // learning rate (default 0.05)
	Momentum     float64 // momentum coefficient μ (default 0.9)
	BucketBytes  int     // gradient bucket byte cap (default 256 KiB)
	Overlap      bool    // initiate bucket collectives during backward instead of waiting at each flush
	Zero1        bool    // ZeRO-1 sharded optimizer instead of full replication
	Seed         int64   // deterministic init and data (default 1)

	// Checkpoint, when set on rank 0, persists (step, parameters,
	// momentum) every CheckpointEvery steps during Train. Under full
	// replication every rank holds identical optimizer state, so rank
	// 0's snapshot restores the whole world; ZeRO-1 shards the momentum
	// per rank and is rejected with checkpointing enabled.
	Checkpoint ckpt.Checkpointer
	// CheckpointEvery is the step period between saves; 0 disables
	// checkpointing even when Checkpoint is set.
	CheckpointEvery int
	// Restart resumes Train from rank 0's latest checkpoint: the
	// restored parameters and momentum are broadcast, every rank
	// fast-forwards its private batch stream to the saved step, and the
	// remaining steps recompute exactly what the uninterrupted run
	// would have — the final parameters are bit-identical. Must be set
	// on every rank; with no checkpoint saved the run starts fresh.
	Restart bool
}

func (cfg Config) withDefaults() Config {
	if len(cfg.Layers) == 0 {
		cfg.Layers = []int{64, 128, 128, 128, 10}
	}
	if cfg.BatchPerRank == 0 {
		cfg.BatchPerRank = 8
	}
	if cfg.Steps == 0 {
		cfg.Steps = 20
	}
	if cfg.LR == 0 {
		cfg.LR = 0.05
	}
	if cfg.Momentum == 0 {
		cfg.Momentum = 0.9
	}
	if cfg.BucketBytes == 0 {
		cfg.BucketBytes = 256 << 10
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return cfg
}

// Result summarizes a training run.
type Result struct {
	Steps     int
	Params    int           // live parameter count
	Buckets   int           // gradient buckets the model packed into
	FirstLoss float64       // global batch loss at the first step
	LastLoss  float64       // and at the last
	Losses    []float64     // global batch loss per step
	FinalFlat []float64     // flattened final parameters (bit-identity checks)
	Elapsed   time.Duration // wall time across all steps
	PerStep   time.Duration // Elapsed / Steps
}

// Trainer runs data-parallel training steps; it exists separately from
// Train so benchmarks can time Step in isolation after setup.
type Trainer struct {
	C   *mpi.Comm
	Cfg Config

	m    *model
	rng  *rand.Rand // per-rank batch generator
	proj []float64  // rank-independent teacher projection inDim×outDim
	X, Y []float64
	reqs []*mpi.CollRequest
}

// NewTrainer validates the configuration and builds the bucketed model.
// Every rank must pass the same Config.
func NewTrainer(c *mpi.Comm, cfg Config) (*Trainer, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Layers) < 2 {
		return nil, fmt.Errorf("ddp: need at least an input and an output layer, got %v", cfg.Layers)
	}
	for _, w := range cfg.Layers {
		if w <= 0 {
			return nil, fmt.Errorf("ddp: non-positive layer width in %v", cfg.Layers)
		}
	}
	np := c.Size()
	t := &Trainer{
		C:   c,
		Cfg: cfg,
		m:   newModel(cfg.Layers, cfg.BatchPerRank, cfg.BucketBytes, np, cfg.Zero1, cfg.Seed),
		rng: rand.New(rand.NewSource(cfg.Seed*9973 + int64(c.Rank()) + 1)),
	}
	in, out := cfg.Layers[0], cfg.Layers[len(cfg.Layers)-1]
	teacher := rand.New(rand.NewSource(cfg.Seed + 555))
	t.proj = make([]float64, in*out)
	for i := range t.proj {
		t.proj[i] = teacher.NormFloat64() / float64(in)
	}
	t.X = make([]float64, cfg.BatchPerRank*in)
	t.Y = make([]float64, cfg.BatchPerRank*out)
	t.reqs = make([]*mpi.CollRequest, 0, len(t.m.buckets))
	return t, nil
}

// Buckets reports how many gradient buckets the model packed into.
func (t *Trainer) Buckets() int { return len(t.m.buckets) }

// Params reports the live parameter count.
func (t *Trainer) Params() int { return t.m.paramCount() }

// FlatParams snapshots the current parameters (bucket order, unpadded).
func (t *Trainer) FlatParams() []float64 { return t.m.flatParams() }

// nextBatch draws this rank's share of the global batch: inputs from the
// per-rank stream, targets from the shared deterministic teacher
// projection — a learnable mapping, so the loss has somewhere to go.
func (t *Trainer) nextBatch() {
	in := t.Cfg.Layers[0]
	out := t.Cfg.Layers[len(t.Cfg.Layers)-1]
	for i := range t.X {
		t.X[i] = t.rng.NormFloat64()
	}
	for s := 0; s < t.Cfg.BatchPerRank; s++ {
		xrow := t.X[s*in : (s+1)*in]
		yrow := t.Y[s*out : (s+1)*out]
		for o := 0; o < out; o++ {
			sum := 0.0
			for i, x := range xrow {
				sum += x * t.proj[i*out+o]
			}
			yrow[o] = sum
		}
	}
}

// Step runs one data-parallel optimizer step — forward, backward with
// bucket flushes, synchronization, update — and returns this rank's
// local batch loss. With Cfg.Overlap the bucket collectives progress in
// the background while backward continues; without it each flush blocks
// until its ring completes (the "sequential" baseline the handout
// measures against).
func (t *Trainer) Step() (float64, error) {
	t.nextBatch()
	m := t.m
	for _, b := range m.buckets {
		clear(b.grads)
	}
	m.forward(t.X)
	loss := m.outputLoss(t.Y)
	for l := len(m.layers) - 1; l >= 0; l-- {
		m.backwardLayer(l)
		if lay := &m.layers[l]; lay.flush {
			if err := t.flush(&m.buckets[lay.bucket]); err != nil {
				return 0, err
			}
		}
	}
	if err := mpi.WaitallColl(t.reqs...); err != nil {
		t.reqs = t.reqs[:0]
		return 0, err
	}
	t.reqs = t.reqs[:0]
	if !t.Cfg.Zero1 {
		invNP := 1.0 / float64(t.C.Size())
		for i := range m.buckets {
			m.buckets[i].updateFull(t.Cfg.LR, t.Cfg.Momentum, invNP)
		}
	}
	return loss, nil
}

// flush synchronizes one completed gradient bucket.
//
// DDP: start the bucket's Iallreduce; under Overlap it rides in the
// background and Step waits for all buckets after backward, otherwise it
// completes here. The parameter update happens after synchronization.
//
// ZeRO-1: reduce-scatter the bucket (blocking — its result is needed
// immediately), update this rank's shard, then start the Iallgather that
// redistributes the updated parameters; only that allgather overlaps
// with the remaining backward.
func (t *Trainer) flush(b *bucket) error {
	if t.Cfg.Zero1 {
		if err := mpi.ReduceScatterInto(t.C, b.grads, mpi.OpSum); err != nil {
			return err
		}
		np := t.C.Size()
		b.updateShard(t.Cfg.LR, t.Cfg.Momentum, 1.0/float64(np), t.C.Rank(), np)
		req, err := mpi.Iallgather(t.C, b.params)
		if err != nil {
			return err
		}
		if !t.Cfg.Overlap {
			return req.Wait()
		}
		t.reqs = append(t.reqs, req)
		return nil
	}
	req, err := mpi.Iallreduce(t.C, b.grads, mpi.OpSum)
	if err != nil {
		return err
	}
	if !t.Cfg.Overlap {
		return req.Wait()
	}
	t.reqs = append(t.reqs, req)
	return nil
}

// Train runs cfg.Steps optimizer steps and reports the global batch loss
// per step (one extra small blocking Allreduce each step, outside the
// timed path benchmarks care about — they call Step directly).
func Train(c *mpi.Comm, cfg Config) (Result, error) {
	t, err := NewTrainer(c, cfg)
	if err != nil {
		return Result{}, err
	}
	cfg = t.Cfg // defaults applied
	if cfg.Zero1 && (cfg.Restart || (cfg.Checkpoint != nil && cfg.CheckpointEvery > 0)) {
		return Result{}, fmt.Errorf("ddp: checkpoint/restart requires full replication (rank 0's momentum is the world's); ZeRO-1 shards it per rank")
	}
	res := Result{
		Steps:   cfg.Steps,
		Params:  t.Params(),
		Buckets: t.Buckets(),
	}

	// Restart: rank 0 restores (step, params, momentum) and broadcasts;
	// every rank fast-forwards its batch stream so step startStep draws
	// the exact samples the uninterrupted run would have drawn.
	proto := ckpt.Protocol{CP: cfg.Checkpoint, Every: cfg.CheckpointEvery, Module: "ddp", Unit: "step"}
	startStep := 0
	if cfg.Restart {
		n := t.Params()
		step, state, err := proto.Restore(c, 2*n)
		if err != nil {
			return Result{}, err
		}
		if state != nil {
			startStep = step
			t.m.setFlatParams(state[:n])
			t.m.setFlatVel(state[n:])
			for s := 0; s < startStep; s++ {
				t.nextBatch() // replay the rng stream, discard the batches
			}
		}
	}

	np := float64(c.Size())
	res.Losses = make([]float64, 0, max(cfg.Steps-startStep, 0))
	start := time.Now()
	for s := startStep; s < cfg.Steps; s++ {
		loss, err := t.Step()
		if err != nil {
			return Result{}, err
		}
		g := [1]float64{loss}
		if err := mpi.AllreduceInto(c, g[:], mpi.OpSum); err != nil {
			return Result{}, err
		}
		res.Losses = append(res.Losses, g[0]/np)

		// The snapshot captures the post-step state: a restart resumes
		// at step s+1 with these exact parameters and momentum.
		if err := proto.Save(c, s+1, func() []float64 { return append(t.m.flatParams(), t.m.flatVel()...) }); err != nil {
			return Result{}, err
		}
	}
	res.Elapsed = time.Since(start)
	if executed := cfg.Steps - startStep; executed > 0 {
		res.PerStep = res.Elapsed / time.Duration(executed)
	}
	if len(res.Losses) > 0 {
		res.FirstLoss = res.Losses[0]
		res.LastLoss = res.Losses[len(res.Losses)-1]
	}
	res.FinalFlat = t.FlatParams()
	return res, nil
}
