package ddp

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/mpi"
)

// testConfig is small enough to run in milliseconds but still packs into
// several buckets, so the flush schedule is exercised for real.
func testConfig() Config {
	return Config{
		Layers:       []int{16, 32, 32, 8},
		BatchPerRank: 4,
		Steps:        8,
		BucketBytes:  8 << 10, // forces multiple buckets
		Seed:         7,
	}
}

func trainOnce(t *testing.T, np int, cfg Config) Result {
	t.Helper()
	var res Result
	err := mpi.Run(np, func(c *mpi.Comm) error {
		r, err := Train(c, cfg)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			res = r
		}
		// Every rank must hold identical parameters after training.
		flat, err := mpi.Bcast(c, r.FinalFlat, 0)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(flat, r.FinalFlat) {
			return fmt.Errorf("rank %d: replica diverged from rank 0", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestLossDecreases: the training loop must actually learn the teacher
// mapping — the point of the module is measuring a real workload.
func TestLossDecreases(t *testing.T) {
	cfg := testConfig()
	cfg.Steps = 30
	cfg.Overlap = true
	res := trainOnce(t, 4, cfg)
	if res.LastLoss >= res.FirstLoss*0.7 {
		t.Fatalf("loss did not decrease: first %.6f, last %.6f", res.FirstLoss, res.LastLoss)
	}
	if res.Buckets < 2 {
		t.Fatalf("config packed into %d bucket(s); the flush schedule is untested", res.Buckets)
	}
}

// TestOverlapBitIdentical is the acceptance property: overlapping the
// bucket collectives with backward compute must not change a single bit
// of the final parameters relative to the sequential schedule.
func TestOverlapBitIdentical(t *testing.T) {
	for _, np := range []int{1, 2, 4} {
		cfg := testConfig()
		cfg.Overlap = false
		seq := trainOnce(t, np, cfg)
		cfg.Overlap = true
		ovl := trainOnce(t, np, cfg)
		if !reflect.DeepEqual(seq.FinalFlat, ovl.FinalFlat) {
			t.Fatalf("np=%d: overlapped parameters differ from sequential", np)
		}
		if !reflect.DeepEqual(seq.Losses, ovl.Losses) {
			t.Fatalf("np=%d: loss curves differ: %v vs %v", np, seq.Losses, ovl.Losses)
		}
	}
}

// TestZero1BitIdenticalWithDDP: the sharded-optimizer variant must
// reproduce full DDP exactly — ReduceScatterInto shards are bit-identical
// to Iallreduce segments, and the elementwise update is the same code.
func TestZero1BitIdenticalWithDDP(t *testing.T) {
	for _, np := range []int{1, 2, 4} {
		for _, overlap := range []bool{false, true} {
			cfg := testConfig()
			cfg.Overlap = overlap
			cfg.Zero1 = false
			ddpRes := trainOnce(t, np, cfg)
			cfg.Zero1 = true
			zeroRes := trainOnce(t, np, cfg)
			if !reflect.DeepEqual(ddpRes.FinalFlat, zeroRes.FinalFlat) {
				t.Fatalf("np=%d overlap=%t: ZeRO-1 parameters differ from DDP", np, overlap)
			}
			if !reflect.DeepEqual(ddpRes.Losses, zeroRes.Losses) {
				t.Fatalf("np=%d overlap=%t: ZeRO-1 loss curve differs from DDP", np, overlap)
			}
		}
	}
}

// TestBucketingInvariance: the bucket cap changes the communication
// schedule, not the model. Different caps shift the ring's segment
// boundaries and with them the floating-point summation order, so — as
// in production DDP — the results agree to accumulated rounding error,
// not bit-exactly (bit-exactness across schedules is what the
// overlap/ZeRO tests assert, where the bucketing is held fixed).
func TestBucketingInvariance(t *testing.T) {
	cfg := testConfig()
	cfg.Overlap = true
	var base Result
	for i, bytes := range []int{1 << 30, 8 << 10, 2 << 10} {
		cfg.BucketBytes = bytes
		res := trainOnce(t, 4, cfg)
		if i == 0 {
			base = res
			if res.Buckets != 1 {
				t.Fatalf("1 GiB cap packed into %d buckets, want 1", res.Buckets)
			}
			continue
		}
		if len(base.FinalFlat) != len(res.FinalFlat) {
			t.Fatalf("bucket cap %d changed the parameter count: %d vs %d", bytes, len(base.FinalFlat), len(res.FinalFlat))
		}
		for j := range base.FinalFlat {
			d := math.Abs(base.FinalFlat[j] - res.FinalFlat[j])
			if d > 1e-9*(1+math.Abs(base.FinalFlat[j])) {
				t.Fatalf("bucket cap %d: parameter %d drifted beyond rounding error: %g vs %g",
					bytes, j, base.FinalFlat[j], res.FinalFlat[j])
			}
		}
	}
}

// TestTCPMatchesChannel: the transport must not affect the numerics.
func TestTCPMatchesChannel(t *testing.T) {
	cfg := testConfig()
	cfg.Overlap = true
	ch := trainOnce(t, 2, cfg)
	var tcp Result
	err := mpi.RunTCP(2, func(c *mpi.Comm) error {
		r, err := Train(c, cfg)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			tcp = r
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ch.FinalFlat, tcp.FinalFlat) {
		t.Fatal("TCP-trained parameters differ from channel-trained")
	}
}

// TestAllocDDPBucketFlush asserts the steady-state allocation bound for
// the hot path: a full training step — forward, backward, every bucket
// flush, waits and update — costs one allocation per bucket and rank
// (the bucket's collective request), independent of model size.
func TestAllocDDPBucketFlush(t *testing.T) {
	const warmup, rounds = 5, 30
	cfg := testConfig()
	cfg.Overlap = true
	var avg float64
	var buckets int
	err := mpi.Run(2, func(c *mpi.Comm) error {
		tr, err := NewTrainer(c, cfg)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			buckets = tr.Buckets()
		}
		step := func() error {
			_, err := tr.Step()
			return err
		}
		for i := 0; i < warmup; i++ {
			if err := step(); err != nil {
				return err
			}
		}
		if c.Rank() == 0 {
			var inner error
			avg = testing.AllocsPerRun(rounds, func() {
				if err := step(); err != nil && inner == nil {
					inner = err
				}
			})
			return inner
		}
		for i := 0; i < rounds+1; i++ {
			if err := step(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if raceEnabled {
		t.Skipf("allocs/step under -race: %.1f (budget not enforced)", avg)
	}
	// Per step and per rank: one request per bucket; both ranks land in
	// the process-wide counter.
	budget := float64(2 * buckets)
	if avg > budget {
		t.Errorf("steady-state DDP step allocations: %.1f, want <= %.0f (%d buckets)", avg, budget, buckets)
	}
}

// TestAllocNewTrainer: building a trainer costs the same number of
// allocations whatever the model's depth and bucket count — the layers,
// buckets and every float array are carved from a fixed handful of
// backing arrays.
func TestAllocNewTrainer(t *testing.T) {
	shallow := testConfig()
	deep := testConfig()
	deep.Layers = []int{16}
	for i := 0; i < 29; i++ {
		deep.Layers = append(deep.Layers, 32)
	}
	deep.Layers = append(deep.Layers, 8)
	var avg [2]float64
	var buckets [2]int
	err := mpi.Run(1, func(c *mpi.Comm) error {
		for i, cfg := range []Config{shallow, deep} {
			var inner error
			avg[i] = testing.AllocsPerRun(20, func() {
				tr, err := NewTrainer(c, cfg)
				if err != nil && inner == nil {
					inner = err
				}
				buckets[i] = tr.Buckets()
			})
			if inner != nil {
				return inner
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if buckets[1] <= buckets[0] {
		t.Fatalf("the 30-layer model packed into %d buckets, the 3-layer one into %d: want more", buckets[1], buckets[0])
	}
	if raceEnabled {
		t.Skipf("allocs per NewTrainer under -race: %.1f and %.1f (budget not enforced)", avg[0], avg[1])
	}
	if avg[0] != avg[1] {
		t.Errorf("NewTrainer allocates %.1f times for 3 layers (%d buckets) and %.1f for 30 (%d buckets), want equal",
			avg[0], buckets[0], avg[1], buckets[1])
	}
}

// TestModelLayout pins how newModel packs layers into buckets and carves
// its arrays: layers join in reverse order until the next would pass the
// cap (a bucket filled exactly to the cap takes no more), a bucket's
// params and grads are padded to a multiple of np with its layers' W and
// b in joining order, ZeRO-1 keeps one momentum shard, and no carved
// slice has room to grow into its neighbour.
func TestModelLayout(t *testing.T) {
	// Layers 2, 1 and 0 hold 12, 20 and 15 parameters; the cap is 32.
	sizes := []int{4, 3, 5, 2}
	const np = 4
	want := []struct {
		n, padded int
		layers    []int // in joining order; the last is the flush trigger
	}{{32, 32, []int{2, 1}}, {15, 16, []int{0}}}
	exact := func(s []float64, n int) bool { return len(s) == n && cap(s) == n }
	for _, zero1 := range []bool{false, true} {
		m := newModel(sizes, 1, 32*8, np, zero1, 1)
		if len(m.buckets) != len(want) {
			t.Fatalf("zero1=%t: %d buckets, want %d", zero1, len(m.buckets), len(want))
		}
		for i, w := range want {
			b := &m.buckets[i]
			vel := w.padded
			if zero1 {
				vel /= np
			}
			if b.n != w.n || !exact(b.params, w.padded) || !exact(b.grads, w.padded) || !exact(b.vel, vel) {
				t.Fatalf("zero1=%t bucket %d: n %d, params %d/%d, grads %d/%d, vel %d/%d; want n %d, %d, %d, %d",
					zero1, i, b.n, len(b.params), cap(b.params), len(b.grads), cap(b.grads), len(b.vel), cap(b.vel), w.n, w.padded, w.padded, vel)
			}
			off := 0
			for k, l := range w.layers {
				lay := &m.layers[l]
				nw := lay.in * lay.out
				if lay.bucket != i || lay.flush != (k == len(w.layers)-1) ||
					!exact(lay.W, nw) || !exact(lay.dW, nw) || !exact(lay.b, lay.out) || !exact(lay.db, lay.out) ||
					&lay.W[0] != &b.params[off] || &lay.dW[0] != &b.grads[off] ||
					&lay.b[0] != &b.params[off+nw] || &lay.db[0] != &b.grads[off+nw] {
					t.Fatalf("zero1=%t: layer %d is not carved at offset %d of bucket %d", zero1, l, off, i)
				}
				off += nw + lay.out
			}
		}
	}
}

// TestAllocMLPKernels: the step's compute — forward, loss, backward
// through every layer and the momentum update — allocates nothing; the
// step's whole allocation budget belongs to the runtime's requests.
func TestAllocMLPKernels(t *testing.T) {
	cfg := testConfig()
	m := newModel(cfg.Layers, 5, cfg.BucketBytes, 2, false, cfg.Seed)
	X := make([]float64, 5*cfg.Layers[0])
	Y := make([]float64, 5*cfg.Layers[len(cfg.Layers)-1])
	for i := range X {
		X[i] = float64(i%7) - 3
	}
	avg := testing.AllocsPerRun(20, func() {
		m.forward(X)
		m.outputLoss(Y)
		for l := len(m.layers) - 1; l >= 0; l-- {
			m.backwardLayer(l)
		}
		for _, b := range m.buckets {
			b.updateFull(0.05, 0.9, 0.5)
		}
	})
	if raceEnabled {
		t.Skipf("allocs/step under -race: %.1f (budget not enforced)", avg)
	}
	if avg != 0 {
		t.Errorf("MLP step kernels allocate %.1f times per step, want 0", avg)
	}
}
