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
// rank the send buffer and the output — so the bytes stay a small
// multiple of the 8n the keys occupy (the append-grown path it replaced
// took 8.4 times) and the count does not depend on n beyond the pool's
// misses. On Run the exchange's rendezvous sends lend their blocks and
// each RecvInto's match copies straight into the bucket, so the big
// blocks draw no wire buffer: with a pooled copy on each side of the
// link a sort read 2.79 x 8n and missed the pool 8 times at n=1e6, every
// time. What misses remain are small: an eager message that arrives
// before its receive is posted holds a 64-byte buffer until then, and a
// rare interleaving has more of those in flight than any sort before it
// (2 sorts in 100 miss twice). So the bound is on the fewest misses of
// up to three sorts. (The race detector's instrumentation allocates, so
// this runs without it; a collection in mid-measurement allocates too,
// so the collector is off while counting.)
func TestAllocSort(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const ranks = 4
	// measure returns the allocations, the bytes and the pool misses of
	// one sort, after another has primed the pool as far as it primes,
	// and the fewest misses of that sort and up to two more.
	measure := func(n int) (allocs, bytes uint64, misses, fewest int64) {
		locals := deal(data.ExponentialKeys(n, 1, 16), ranks)
		sortOnce := func() (misses int64) {
			misses = mpi.PoolStats().Misses
			err := mpi.Run(ranks, func(c *mpi.Comm) error {
				_, _, err := Sort(c, locals[c.Rank()], Histogram)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			return mpi.PoolStats().Misses - misses
		}
		sortOnce()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		misses = sortOnce()
		runtime.ReadMemStats(&after)
		fewest = misses
		for i := 0; i < 2 && fewest > 0; i++ {
			fewest = min(fewest, sortOnce())
		}
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, misses, fewest
	}
	smallAllocs, _, smallMisses, _ := measure(100_000)
	const n = 1_000_000
	allocs, bytes, misses, fewest := measure(n)
	t.Logf("n=1e5: %d allocations (%d pool misses); n=1e6: %d allocations (%d pool misses, fewest of up to three sorts %d), %.2f x 8n bytes",
		smallAllocs, smallMisses, allocs, misses, fewest, float64(bytes)/(8*n))
	if limit := uint64(2.5 * 8 * n); bytes > limit {
		t.Errorf("sort of %d keys allocates %d bytes, want <= 2.5 x 8n = %d", n, bytes, limit)
	}
	if fewest != 0 {
		t.Errorf("every one of three sorts of %d keys misses the buffer pool (the fewest %d times), want a sort with 0", n, fewest)
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
