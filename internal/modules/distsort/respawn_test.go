package distsort

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/data"
	"repro/internal/faults"
	"repro/internal/leakcheck"
	"repro/internal/mpi"
)

// TestSortResilientRespawn: kill a rank mid-sort, respawn at full
// width, and every surviving rank's bucket matches the clean run bit
// for bit — the replacement re-runs on the dead rank's original input.
func TestSortResilientRespawn(t *testing.T) {
	const np, perRank = 4, 500
	rng := rand.New(rand.NewSource(77))
	parts := make([][]float64, np)
	for r := range parts {
		parts[r] = make([]float64, perRank)
		for i := range parts[r] {
			parts[r][i] = rng.Float64() * 1000
		}
	}
	localFor := func(rank int) []float64 { return parts[rank] }

	run := func(spec string, ckptFor func(int) ckpt.Checkpointer) map[int][]float64 {
		t.Helper()
		var mu sync.Mutex
		out := make(map[int][]float64)
		err := mpi.Run(np, func(c *mpi.Comm) error {
			mine, _, err := SortResilient(c, EqualWidth, localFor, ckptFor)
			if err != nil {
				return err
			}
			mu.Lock()
			out[c.Rank()] = mine
			mu.Unlock()
			return nil
		}, mpi.WithInjector(faults.MustParse(spec)))
		if spec == "" {
			if err != nil {
				t.Fatalf("clean run: %v", err)
			}
		} else if err == nil || !errors.Is(err, mpi.ErrRankKilled) {
			t.Fatalf("faulted run: %v, want ErrRankKilled", err)
		}
		return out
	}

	clean := run("", nil)
	if len(clean) != np {
		t.Fatalf("clean run returned %d buckets", len(clean))
	}

	// Without checkpoints: recovery re-sorts from the original inputs.
	faulted := run("rank=2:call=3:kill", nil)
	if len(faulted) != np-1 {
		t.Fatalf("faulted run returned %d buckets, want %d survivors", len(faulted), np-1)
	}
	for r, mine := range faulted {
		if !reflect.DeepEqual(mine, clean[r]) {
			t.Errorf("rank %d: post-respawn bucket differs from the clean run", r)
		}
	}

	// With per-rank checkpointers: a kill after the buckets were saved
	// restores them instead of re-sorting. The consensus round must
	// also tolerate a kill landing before any save (cold retry).
	cks := make([]ckpt.Checkpointer, np)
	for r := range cks {
		cks[r] = ckpt.NewMem()
	}
	ckptFor := func(rank int) ckpt.Checkpointer { return cks[rank] }
	faulted = run("rank=1:call=2:kill", ckptFor)
	for r, mine := range faulted {
		if !reflect.DeepEqual(mine, clean[r]) {
			t.Errorf("rank %d: checkpointed recovery bucket differs from the clean run", r)
		}
	}
}

// TestSortResilientRespawnLarge is TestSortResilientRespawn at the
// benchmark's size, where every exchanged block takes the rendezvous
// path: 10⁶ exponential keys on 4 ranks with histogram splitters. Rank
// 2 dies entering its 10th call, the second Probe of the exchange, with
// its three ~0.5 MB sends posted and none received. The survivors'
// buckets must match the clean run bit for bit, and the recovery must
// leave no goroutine or pool buffer behind.
func TestSortResilientRespawnLarge(t *testing.T) {
	const np = 4
	locals := deal(data.ExponentialKeys(1_000_000, 1, 33), np)
	run := func(opts ...mpi.Option) ([np][]float64, error) {
		var out [np][]float64
		err := mpi.Run(np, func(c *mpi.Comm) error {
			mine, _, err := SortResilient(c, Histogram, func(rank int) []float64 { return locals[rank] }, nil)
			out[c.Rank()] = mine
			return err
		}, opts...)
		return out, err
	}
	clean, err := run()
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	defer leakcheck.Snapshot(t, leakcheck.Gauge{
		Name: "pool_bytes_in_flight",
		Read: func() int64 { return mpi.PoolStats().BytesInFlight },
	}).Check()
	faulted, err := run(mpi.WithInjector(faults.MustParse("rank=2:call=10:kill")))
	if !errors.Is(err, mpi.ErrRankKilled) {
		t.Fatalf("faulted run: %v, want ErrRankKilled", err)
	}
	for r := range np {
		if r == 2 {
			continue
		}
		if i := sameBits(faulted[r], clean[r]); i >= 0 {
			t.Errorf("rank %d: post-respawn bucket of %d keys differs from the clean run's %d at %d",
				r, len(faulted[r]), len(clean[r]), i)
		}
	}
}
