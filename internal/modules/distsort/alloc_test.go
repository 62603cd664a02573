//go:build !race

package distsort

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/data"
	"repro/internal/mpi"
)

// TestAllocSort pins what the flat data path buys. A 4-rank Histogram
// sort of n exponential keys allocates a fixed handful of arrays — per
// rank the send buffer and the output, plus the wire buffers the
// runtime's pool cannot supply — so the bytes stay a small multiple of
// the 8n the keys occupy (the append-grown path it replaced took 8.4
// times) and the count does not depend on n beyond the pool's
// misses. (The race detector's instrumentation allocates, so this runs
// without it; a collection in mid-measurement allocates too, so the
// collector is off while counting.)
func TestAllocSort(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const ranks = 4
	// measure returns the allocations, the bytes and the pool misses of
	// one sort, after another has primed the pool as far as it primes.
	measure := func(n int) (allocs, bytes uint64, misses int64) {
		locals := deal(data.ExponentialKeys(n, 1, 16), ranks)
		sortOnce := func() {
			err := mpi.Run(ranks, func(c *mpi.Comm) error {
				_, _, err := Sort(c, locals[c.Rank()], Histogram)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		sortOnce()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		misses = mpi.PoolStats().Misses
		sortOnce()
		misses = mpi.PoolStats().Misses - misses
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, misses
	}
	smallAllocs, _, smallMisses := measure(100_000)
	const n = 1_000_000
	allocs, bytes, misses := measure(n)
	t.Logf("n=1e5: %d allocations (%d pool misses); n=1e6: %d allocations (%d pool misses), %.2f x 8n bytes",
		smallAllocs, smallMisses, allocs, misses, float64(bytes)/(8*n))
	if limit := uint64(3.0 * 8 * n); bytes > limit {
		t.Errorf("sort of %d keys allocates %d bytes, want <= 3.0 x 8n = %d", n, bytes, limit)
	}
	if grew, allowed := int64(allocs)-int64(smallAllocs), max(misses-smallMisses, 0)+16; grew > allowed {
		t.Errorf("sort allocates %d times at n=1e5 and %d at n=1e6: %d more, but the pool's misses account for only %d",
			smallAllocs, allocs, grew, allowed)
	}
}

// TestAllocRadixScratch: the kernel with a caller-supplied scratch
// allocates nothing, at any size.
func TestAllocRadixScratch(t *testing.T) {
	for _, n := range []int{0, 1, 100, 100_000} {
		keys := data.ExponentialKeys(n, 1, 17)
		buf, scratch := make([]float64, n), make([]float64, n)
		if avg := testing.AllocsPerRun(5, func() {
			copy(buf, keys)
			radixSort(buf, scratch)
		}); avg != 0 {
			t.Errorf("radixSort of %d keys allocates %.0f times, want 0", n, avg)
		}
	}
}
