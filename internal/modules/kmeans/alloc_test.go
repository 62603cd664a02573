//go:build !race

package kmeans

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/data"
	"repro/internal/mpi"
)

// TestAllocKmeansSteady pins the flat path's second half: a steady-state
// iteration allocates nothing in the module. One step — assignment fused
// with the partial sums, then the centroid update, and rank 0's recompute
// under the explicit option — on caller-owned scratch allocates zero
// objects, at the paper's dim 2 and at dim 90; and a 4-rank Distributed
// allocates the same number of objects whether it runs 10 iterations or
// 110, give or take the runtime's buffer-pool misses. (The race
// detector's instrumentation allocates, so this runs without it; a
// collection in mid-measurement allocates too, so the collector is off
// while counting.)
func TestAllocKmeansSteady(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, dim := range []int{2, 90} {
		const n, k = 512, 8
		pts, _ := data.GaussianMixture(n, dim, 4, 1.0, 50, 3)
		cent := initialCentroids(pts, k, 1)
		assign, assign64 := make([]int, n), make([]int64, n)
		sums, counts := make([]float64, k*dim), make([]float64, k)
		step := testing.AllocsPerRun(20, func() {
			assignAndSum(pts, cent, assign, sums, counts)
			updateCentroids(cent, sums, counts, -1)
		})
		for i, a := range assign {
			assign64[i] = int64(a)
		}
		recompute := testing.AllocsPerRun(20, func() {
			recomputeCentroids(cent, pts.Coords, assign64, sums, counts, -1)
		})
		if step != 0 || recompute != 0 {
			t.Errorf("dim %d: an iteration step allocates %v objects and the explicit option's recompute %v, want 0 and 0", dim, step, recompute)
		}
	}

	pts, _ := data.GaussianMixture(2048, 2, 8, 2.0, 100, 3)
	run := func(iters int) {
		err := mpi.Run(4, func(c *mpi.Comm) error {
			_, _, _, err := Distributed(c, pts, Config{K: 16, MaxIter: iters, Tol: -1, Seed: 3})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// measure returns the allocations and the pool misses of one run,
	// after another has primed the pool as far as it primes.
	measure := func(iters int) (allocs uint64, misses int64) {
		run(iters)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		misses = mpi.PoolStats().Misses
		run(iters)
		misses = mpi.PoolStats().Misses - misses
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, misses
	}
	short, shortMisses := measure(10)
	long, longMisses := measure(110)
	t.Logf("MaxIter 10: %d allocations (%d pool misses); MaxIter 110: %d allocations (%d pool misses)", short, shortMisses, long, longMisses)
	// What a longer run may still cost is the runtime's: a pool miss is
	// two objects (the buffer and its header), and the 32 covers the
	// goroutine-parking bookkeeping that 100 more rounds of blocking can
	// touch (150 measurements read -5 to +8). The loops this replaced
	// allocated once per rank per iteration: 400 more.
	if grew, allowed := int64(long)-int64(short), 2*max(longMisses-shortMisses, 0)+32; grew > allowed {
		t.Errorf("Distributed allocates %d objects over 10 iterations and %d over 110: %d more, want at most %d", short, long, grew, allowed)
	}
}
