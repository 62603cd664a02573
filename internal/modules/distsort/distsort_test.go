package distsort

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/data"
	"repro/internal/mpi"
)

// errStop is what a rank returns, once it has seen the error under
// test, to stop the world and release peers blocked in a collective.
var errStop = errors.New("stop the world")

// runSort executes the distributed sort across np ranks over the given
// global key set (dealt round-robin to ranks) and returns the
// concatenated buckets plus per-rank results.
func runSort(t *testing.T, np int, keys []float64, splitter Splitter) ([]float64, []Result) {
	t.Helper()
	buckets := make([][]float64, np)
	results := make([]Result, np)
	err := mpi.Run(np, func(c *mpi.Comm) error {
		var local []float64
		for i := c.Rank(); i < len(keys); i += np {
			local = append(local, keys[i])
		}
		mine, res, err := Sort(c, local, splitter)
		if err != nil {
			return err
		}
		ok, err := VerifyDistributedSorted(c, mine)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("rank %d: distributed order violated", c.Rank())
		}
		buckets[c.Rank()] = mine
		results[c.Rank()] = res
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var all []float64
	for _, b := range buckets {
		all = append(all, b...)
	}
	return all, results
}

func assertSorted(t *testing.T, got, orig []float64) {
	t.Helper()
	if len(got) != len(orig) {
		t.Fatalf("lost keys: %d of %d", len(got), len(orig))
	}
	want := append([]float64(nil), orig...)
	sort.Float64s(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d: %v, want %v", i, got[i], want[i])
		}
	}
}

func TestUniformEqualWidthBalanced(t *testing.T) {
	keys := data.UniformKeys(40_000, 0, 1000, 1)
	all, results := runSort(t, 4, keys, EqualWidth)
	assertSorted(t, all, keys)
	if imb := results[0].Imbalance; imb > 1.1 {
		t.Fatalf("uniform data imbalance %v, want ≈1", imb)
	}
}

func TestExponentialEqualWidthImbalanced(t *testing.T) {
	keys := data.ExponentialKeys(40_000, 1, 2)
	all, results := runSort(t, 4, keys, EqualWidth)
	assertSorted(t, all, keys)
	// Equal-width buckets over exponential data overload rank 0: the
	// module's activity-2 lesson.
	if imb := results[0].Imbalance; imb < 2.0 {
		t.Fatalf("exponential data imbalance %v, expected severe (≥2)", imb)
	}
}

func TestExponentialHistogramRebalances(t *testing.T) {
	keys := data.ExponentialKeys(40_000, 1, 3)
	all, results := runSort(t, 4, keys, Histogram)
	assertSorted(t, all, keys)
	// Histogram equi-depth boundaries restore balance: activity 3.
	if imb := results[0].Imbalance; imb > 1.25 {
		t.Fatalf("histogram imbalance %v, want ≈1", imb)
	}
}

func TestSampledSplitterAblation(t *testing.T) {
	keys := data.ExponentialKeys(40_000, 1, 4)
	all, results := runSort(t, 4, keys, Sampled)
	assertSorted(t, all, keys)
	if imb := results[0].Imbalance; imb > 1.3 {
		t.Fatalf("sampled imbalance %v", imb)
	}
}

// TestOutlierDefeatsRangeSplitters pins the lesson of a single outlier:
// one key at 1e300 among 100k uniform keys per rank in [0, 1000)
// stretches the global range, so EqualWidth's buckets and the
// histogram's bins over that range put every other key on one rank
// (imbalance p), while the regular sample never sees the range at all.
func TestOutlierDefeatsRangeSplitters(t *testing.T) {
	const np = 4
	keys := data.UniformKeys(np*100_000, 0, 1000, 1)
	keys[0] = 1e300
	for _, tc := range []struct {
		splitter Splitter
		lo, hi   float64
	}{
		{EqualWidth, np - 0.001, np + 0.001},
		{Histogram, np - 0.001, np + 0.001},
		{Sampled, 1, 1.05},
	} {
		all, results := runSort(t, np, keys, tc.splitter)
		assertSorted(t, all, keys)
		if imb := results[0].Imbalance; imb < tc.lo || imb > tc.hi {
			t.Errorf("%v with an outlier: imbalance %.4f, want %.3f to %.3f", tc.splitter, imb, tc.lo, tc.hi)
		}
	}
}

func TestAllSplittersAllSizes(t *testing.T) {
	keys := data.UniformKeys(9_999, -50, 50, 5) // odd size, negative keys
	for _, np := range []int{1, 2, 3, 5, 8} {
		for _, sp := range []Splitter{EqualWidth, Histogram, Sampled} {
			np, sp := np, sp
			t.Run(fmt.Sprintf("np=%d %s", np, sp), func(t *testing.T) {
				all, _ := runSort(t, np, keys, sp)
				assertSorted(t, all, keys)
			})
		}
	}
}

func TestDuplicateKeys(t *testing.T) {
	keys := make([]float64, 10_000)
	rng := rand.New(rand.NewSource(6))
	for i := range keys {
		keys[i] = float64(rng.Intn(10)) // heavy duplication
	}
	all, _ := runSort(t, 4, keys, Histogram)
	assertSorted(t, all, keys)
}

func TestIdenticalKeys(t *testing.T) {
	keys := make([]float64, 1000)
	for i := range keys {
		keys[i] = 42
	}
	all, _ := runSort(t, 3, keys, EqualWidth)
	assertSorted(t, all, keys)
}

func TestEmptyInput(t *testing.T) {
	all, _ := runSort(t, 3, nil, EqualWidth)
	if len(all) != 0 {
		t.Fatalf("empty input produced %d keys", len(all))
	}
}

func TestSplitterStrings(t *testing.T) {
	for _, sp := range []Splitter{EqualWidth, Histogram, Sampled} {
		if sp.String() == "" {
			t.Fatal("empty splitter name")
		}
	}
	if Splitter(99).String() == "" {
		t.Fatal("unknown splitter has empty name")
	}
}

func TestUnknownSplitterRejected(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		_, _, err := Sort(c, []float64{1}, Splitter(99))
		if err == nil {
			return fmt.Errorf("unknown splitter accepted")
		}
		return errStop // peers may be mid-collective; the error stops the world
	})
	if !errors.Is(err, errStop) {
		t.Fatalf("unknown splitter not rejected: %v", err)
	}
}

func TestSequentialSort(t *testing.T) {
	keys := data.UniformKeys(5000, 0, 1, 8)
	out, dur := SequentialSort(keys)
	assertSorted(t, out, keys)
	if dur < 0 {
		t.Fatal("negative duration")
	}
	// Input must not be mutated.
	sorted := sort.Float64sAreSorted(keys)
	if sorted {
		t.Skip("input happened to be sorted")
	}
}

func TestModule3PrimitiveSet(t *testing.T) {
	// Table II for Module 3: Send/Recv (N), Reduce (R), Get_count (N) —
	// and no Scatter/Bcast/Alltoall.
	keys := data.UniformKeys(1000, 0, 1, 9)
	err := mpi.Run(3, func(c *mpi.Comm) error {
		var local []float64
		for i := c.Rank(); i < len(keys); i += 3 {
			local = append(local, keys[i])
		}
		if _, _, err := Sort(c, local, EqualWidth); err != nil {
			return err
		}
		if c.Rank() == 0 {
			snap := c.Stats()
			if snap.TotalCalls(mpi.PrimReduce) == 0 {
				return fmt.Errorf("MPI_Reduce (required) not used")
			}
			if snap.TotalCalls(mpi.PrimGetCount) == 0 {
				return fmt.Errorf("MPI_Get_count not used")
			}
			for _, banned := range []mpi.Primitive{mpi.PrimScatter, mpi.PrimBcast, mpi.PrimAlltoallv} {
				if snap.TotalCalls(banned) != 0 {
					return fmt.Errorf("%v used but not in Module 3's primitive set", banned)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEquiDepthBoundariesMonotone(t *testing.T) {
	keys := data.ExponentialKeys(10_000, 1, 10)
	lo, hi := keys[0], keys[0]
	for _, k := range keys {
		if k < lo {
			lo = k
		}
		if k > hi {
			hi = k
		}
	}
	bounds := equiDepthBoundaries(keys, lo, hi, 8)
	if len(bounds) != 7 {
		t.Fatalf("%d boundaries for p=8", len(bounds))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] < bounds[i-1] {
			t.Fatalf("boundaries not monotone: %v", bounds)
		}
	}
	// Buckets implied by boundaries should be roughly equal-depth.
	counts := make([]int, 8)
	for _, k := range keys {
		counts[bucketOf(k, bounds)]++
	}
	for b, n := range counts {
		if n < 500 || n > 2500 {
			t.Fatalf("bucket %d holds %d of 10000: %v", b, n, counts)
		}
	}
}

func TestBucketOf(t *testing.T) {
	bounds := []float64{10, 20, 30}
	cases := map[float64]int{5: 0, 10: 0, 10.5: 1, 20: 1, 25: 2, 30: 2, 31: 3}
	for k, want := range cases {
		if got := bucketOf(k, bounds); got != want {
			t.Fatalf("bucketOf(%v) = %d, want %d", k, got, want)
		}
	}
}

func TestRadixSortMatchesStdlib(t *testing.T) {
	cases := [][]float64{
		nil,
		{1},
		{3, -1, 2},
		{0, math.Copysign(0, -1), 1, -1},      // signed zeros
		{math.Inf(1), math.Inf(-1), 0, 5, -5}, // infinities
		{1e-310, -1e-310, math.SmallestNonzeroFloat64}, // subnormals
		data.UniformKeys(10_000, -1e6, 1e6, 77),        // bulk
		data.ExponentialKeys(10_000, 1, 78),            // skewed
	}
	for i, keys := range cases {
		got := append([]float64(nil), keys...)
		RadixSortFloat64s(got)
		want := append([]float64(nil), keys...)
		sort.Float64s(want)
		for j := range want {
			a, b := got[j], want[j]
			if a != b && !(a == 0 && b == 0) { // -0 and +0 tie arbitrarily
				t.Fatalf("case %d element %d: %v != %v", i, j, a, b)
			}
		}
	}
}

func TestRadixSortNaNsSortLast(t *testing.T) {
	keys := []float64{2, math.NaN(), -1, math.NaN(), math.Inf(1)}
	RadixSortFloat64s(keys)
	if keys[0] != -1 || keys[1] != 2 || !math.IsInf(keys[2], 1) {
		t.Fatalf("order %v", keys)
	}
	if !math.IsNaN(keys[3]) || !math.IsNaN(keys[4]) {
		t.Fatalf("NaNs not last: %v", keys)
	}
}

func TestRadixSortQuick(t *testing.T) {
	f := func(keys []float64) bool {
		for _, k := range keys {
			if math.IsNaN(k) {
				return true // ordering of NaN ties is stdlib-unspecified
			}
		}
		got := append([]float64(nil), keys...)
		RadixSortFloat64s(got)
		return sort.Float64sAreSorted(got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// FuzzEquiDepthBoundaries hardens the histogram splitter: boundaries must
// be monotone and within range for arbitrary key sets.
func FuzzEquiDepthBoundaries(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		keys := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, b := range raw {
			keys[i] = float64(b) * 1.5
			if keys[i] < lo {
				lo = keys[i]
			}
			if keys[i] > hi {
				hi = keys[i]
			}
		}
		for _, p := range []int{2, 4, 7} {
			bounds := equiDepthBoundaries(keys, lo, hi, p)
			if len(bounds) != p-1 {
				t.Fatalf("%d boundaries for p=%d", len(bounds), p)
			}
			for i := 1; i < len(bounds); i++ {
				if bounds[i] < bounds[i-1] {
					t.Fatalf("boundaries not monotone: %v", bounds)
				}
			}
			for _, k := range keys {
				b := bucketOf(k, bounds)
				if b < 0 || b >= p {
					t.Fatalf("key %v in bucket %d of %d", k, b, p)
				}
			}
		}
	})
}
