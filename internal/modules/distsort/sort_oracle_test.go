package distsort

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/data"
	"repro/internal/mpi"
)

// refSort is the partition, exchange and local sort SortOpts ran before
// the flat data path — one append-grown slice per destination, each
// inbound block decoded into a scratch and appended to the bucket in
// arrival order, sort.Float64s — kept verbatim as the oracle: the flat
// path must return its bucket bit for bit on every rank.
func refSort(c *mpi.Comm, local []float64, splitter Splitter) ([]float64, error) {
	p := c.Size()
	boundaries, err := computeBoundaries(c, local, splitter)
	if err != nil {
		return nil, err
	}

	// Partition local keys into per-destination blocks.
	blocks := make([][]float64, p)
	for _, k := range local {
		b := refBucketOf(k, boundaries)
		blocks[b] = append(blocks[b], k)
	}

	r := c.Rank()
	var reqs []*mpi.Request
	for dst := 0; dst < p; dst++ {
		if dst == r {
			continue
		}
		req, err := mpi.Isend(c, blocks[dst], dst, tagExchange)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, req)
	}
	mine := append([]float64(nil), blocks[r]...)
	var scratch []float64 // reused across receives; grown to the largest block
	for i := 0; i < p-1; i++ {
		st, err := c.Probe(mpi.AnySource, tagExchange)
		if err != nil {
			return nil, err
		}
		n, err := c.GetCount(st, 8)
		if err != nil {
			return nil, err
		}
		if cap(scratch) < n {
			scratch = make([]float64, n)
		}
		blk, _, err := mpi.RecvInto(c, scratch[:0], st.Source, tagExchange)
		if err != nil {
			return nil, err
		}
		scratch = blk
		mine = append(mine, blk...)
	}
	if err := mpi.Waitall(reqs...); err != nil {
		return nil, err
	}

	sort.Float64s(mine)
	return mine, nil
}

// refBucketOf is the bucket search SortOpts ran before the branch-free
// one, kept verbatim as its oracle: the first i with bounds[i] >= k,
// found as sort.SearchFloat64s finds it, minus the closure call per
// probe.
func refBucketOf(k float64, bounds []float64) int {
	lo, hi := 0, len(bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bounds[mid] >= k {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// deal hands keys out round-robin, as every test of the module does.
func deal(keys []float64, np int) [][]float64 {
	locals := make([][]float64, np)
	for i, k := range keys {
		locals[i%np] = append(locals[i%np], k)
	}
	return locals
}

// sameBits reports the first index at which a and b differ as bit
// patterns, or -1.
func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestFlatSortMatchesRef runs Sort and refSort on the same world and the
// same keys and requires every rank's bucket to agree bit for bit. The
// sizes 0, 1 and p-1 leave ranks with nothing to send or to receive.
func TestFlatSortMatchesRef(t *testing.T) {
	dists := []struct {
		name string
		gen  func(n int) []float64
	}{
		{"uniform", func(n int) []float64 { return data.UniformKeys(n, -500, 500, 21) }},
		{"exponential", func(n int) []float64 { return data.ExponentialKeys(n, 1, 22) }},
		{"identical", func(n int) []float64 {
			keys := make([]float64, n)
			for i := range keys {
				keys[i] = 42
			}
			return keys
		}},
		{"duplicates", func(n int) []float64 {
			rng := rand.New(rand.NewSource(23))
			keys := make([]float64, n)
			for i := range keys {
				keys[i] = float64(rng.Intn(10))
			}
			return keys
		}},
	}
	for np := 1; np <= 8; np++ {
		for _, sp := range []Splitter{EqualWidth, Histogram, Sampled} {
			for _, d := range dists {
				for _, n := range []int{0, 1, np - 1, 100_000} {
					locals := deal(d.gen(n), np)
					err := mpi.Run(np, func(c *mpi.Comm) error {
						local := locals[c.Rank()]
						got, _, err := Sort(c, local, sp)
						if err != nil {
							return err
						}
						want, err := refSort(c, local, sp)
						if err != nil {
							return err
						}
						if i := sameBits(got, want); i >= 0 {
							return fmt.Errorf("%d keys, reference %d, first difference at %d", len(got), len(want), i)
						}
						return nil
					})
					if err != nil {
						t.Fatalf("np=%d %s %s n=%d: %v", np, sp, d.name, n, err)
					}
				}
			}
		}
	}
}

// TestSortZeroAndNaNOrder pins the total order of the distributed sort
// where a comparison sort has none: −0 before +0, and every NaN, of
// either sign, after the largest number, on the last rank.
func TestSortZeroAndNaNOrder(t *testing.T) {
	negZero := math.Copysign(0, -1)
	want := data.UniformKeys(400, -10, 10, 24)
	sort.Float64s(want)
	zeros := sort.SearchFloat64s(want, 0)
	want = slices.Insert(want, zeros, negZero, negZero, negZero, 0, 0)
	want = append(want, math.Float64frombits(0x7FF8000000000001), math.Float64frombits(0xFFF8000000000002))
	keys := slices.Clone(want)
	rand.New(rand.NewSource(25)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })

	for _, sp := range []Splitter{Histogram, Sampled} {
		const np = 4
		locals, buckets := deal(keys, np), make([][]float64, np)
		err := mpi.Run(np, func(c *mpi.Comm) error {
			mine, _, err := Sort(c, locals[c.Rank()], sp)
			buckets[c.Rank()] = mine
			return err
		})
		if err != nil {
			t.Fatalf("%s: %v", sp, err)
		}
		if i := sameBits(slices.Concat(buckets...), want); i >= 0 {
			t.Errorf("%s: buckets differ from the total order at %d: %v", sp, i, buckets)
		}
		if last := buckets[np-1]; len(last) < 2 || !math.IsNaN(last[len(last)-2]) {
			t.Errorf("%s: the NaNs are not at the end of the last rank: %v", sp, last)
		}
	}
}

// FuzzRadixScratch checks the kernel against slices.Sort on the
// ordered-bit transform for arbitrary bit patterns (NaNs of both signs,
// signed zeros, subnormals), with a scratch of exactly len(keys) and
// with one that is the front of a longer buffer, as SortOpts passes it.
func FuzzRadixScratch(f *testing.F) {
	seed := func(keys ...float64) {
		var raw []byte
		for _, k := range keys {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(k))
		}
		f.Add(raw)
	}
	seed()
	seed(1)
	seed(3, -1, 2)
	seed(0, math.Copysign(0, -1), 0, math.Copysign(0, -1))
	seed(math.NaN(), math.Inf(1), -math.NaN(), math.Inf(-1), 5e-324, -5e-324)
	seed(data.ExponentialKeys(300, 1, 26)...)
	f.Fuzz(func(t *testing.T, raw []byte) {
		keys := make([]float64, len(raw)/8)
		for i := range keys {
			keys[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		want := make([]uint64, len(keys))
		for i, k := range keys {
			want[i] = orderedBits(k)
		}
		slices.Sort(want)
		const sentinel = 12345.0
		for _, extra := range []int{0, 3} {
			got := slices.Clone(keys)
			scratch := make([]float64, len(keys)+extra)
			for i := range scratch {
				scratch[i] = sentinel
			}
			radixSort(got, scratch)
			for i, k := range got {
				if orderedBits(k) != want[i] {
					t.Fatalf("scratch +%d: element %d is %v (%#x), want key %#x", extra, i, k, math.Float64bits(k), want[i])
				}
			}
			for _, s := range scratch[len(keys):] {
				if s != sentinel {
					t.Fatalf("scratch +%d: the kernel wrote past len(keys)", extra)
				}
			}
			// Same keys, not just the same order: compare the bit patterns as sets.
			in, out := make([]uint64, len(keys)), make([]uint64, len(keys))
			for i := range keys {
				in[i], out[i] = math.Float64bits(keys[i]), math.Float64bits(got[i])
			}
			slices.Sort(in)
			slices.Sort(out)
			if !slices.Equal(in, out) {
				t.Fatalf("scratch +%d: the output is not a permutation of the input", extra)
			}
		}
	})
}

// bucketKeys returns the keys a bucket search must place as the oracle
// does: NaNs of both signs, signed zeros, subnormals, infinities, every
// bound and its two neighbours, and a spread of ordinary values.
func bucketKeys(bounds []float64, rng *rand.Rand) []float64 {
	keys := []float64{
		math.Float64frombits(0x7FF8000000000001), math.Float64frombits(0xFFF8000000000002),
		0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, -1e-310,
		math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
	}
	for _, b := range bounds {
		keys = append(keys, b, math.Nextafter(b, math.Inf(-1)), math.Nextafter(b, math.Inf(1)))
	}
	for range 64 {
		keys = append(keys, 4*rng.Float64()-2, math.Float64frombits(rng.Uint64()))
	}
	return keys
}

// checkBucketOf fails t at the first key bucketOf places differently
// from refBucketOf.
func checkBucketOf(t *testing.T, name string, bounds, keys []float64) {
	t.Helper()
	for _, k := range keys {
		if got, want := bucketOf(k, bounds), refBucketOf(k, bounds); got != want {
			t.Fatalf("%s, p=%d: bucketOf(%v [%#x]) = %d, reference %d; bounds %v",
				name, len(bounds)+1, k, math.Float64bits(k), got, want, bounds)
		}
	}
}

// TestBucketOfMatchesRef holds the branch-free search to the binary
// search it replaced, on the bounds every splitter can produce:
// ascending with duplicates, NaNs leading as sort.Float64s leaves them
// (a sampled splitter fed NaN keys), all NaN (equal-width over no keys,
// or over an infinite range), signed zeros and infinities, and the
// equal-width and equi-depth formulas themselves.
func TestBucketOfMatchesRef(t *testing.T) {
	nan := math.NaN()
	specials := []float64{math.Inf(-1), -1, math.Copysign(0, -1), 0, 5e-324, 1, math.Inf(1)}
	equalWidth := func(lo, hi float64, p int) []float64 {
		bounds := make([]float64, p-1)
		for i := range bounds {
			bounds[i] = lo + (hi-lo)/float64(p)*float64(i+1)
		}
		return bounds
	}
	rng := rand.New(rand.NewSource(27))
	expo := data.ExponentialKeys(5_000, 1, 28)
	ps := []int{1025}
	for p := 1; p <= 17; p++ {
		ps = append(ps, p)
	}
	for _, p := range ps {
		m := p - 1
		draw := func(pick func() float64) []float64 {
			bounds := make([]float64, m)
			for i := range bounds {
				bounds[i] = pick()
			}
			sort.Float64s(bounds)
			return bounds
		}
		cases := []struct {
			name   string
			bounds []float64
		}{
			{"duplicates", draw(func() float64 { return float64(rng.Intn(4)) })},
			{"leading NaNs", draw(func() float64 {
				if rng.Intn(3) == 0 {
					return math.Copysign(nan, float64(rng.Intn(2)*2-1))
				}
				return rng.NormFloat64()
			})},
			{"all NaN", draw(func() float64 { return nan })},
			{"zeros, infinites", draw(func() float64 { return specials[rng.Intn(len(specials))] })},
			{"equal-width", equalWidth(-500, 500, p)},
			{"equal-width one", equalWidth(5, 5, p)},
			{"equal-width none", equalWidth(math.Inf(1), math.Inf(-1), p)},
			{"equal-width inf", equalWidth(0, math.Inf(1), p)},
			{"equi-depth", equiDepthBoundaries(expo, 0, 12, p)},
			{"equi-depth -inf", equiDepthBoundaries(expo, math.Inf(-1), 12, p)},
		}
		for _, tc := range cases {
			checkBucketOf(t, tc.name, tc.bounds, bucketKeys(tc.bounds, rng))
		}
	}
}

// FuzzBucketOf holds bucketOf to refBucketOf on arbitrary bit patterns
// sorted as the sampled splitter sorts its pool, for the fuzzed key and
// for every bound and its neighbours.
func FuzzBucketOf(f *testing.F) {
	seed := func(key float64, bounds ...float64) {
		var raw []byte
		for _, b := range bounds {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(b))
		}
		f.Add(raw, math.Float64bits(key))
	}
	seed(1)
	seed(10, 10, 20, 30)
	seed(math.Copysign(0, -1), 0, 0, math.Copysign(0, -1))
	seed(math.NaN(), math.NaN(), -math.NaN(), 1, 2)
	seed(5e-324, math.Inf(-1), -5e-324, 5e-324, math.Inf(1))
	f.Fuzz(func(t *testing.T, raw []byte, key uint64) {
		bounds := make([]float64, len(raw)/8)
		for i := range bounds {
			bounds[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		sort.Float64s(bounds)
		keys := []float64{math.Float64frombits(key)}
		for _, b := range bounds {
			keys = append(keys, b, math.Nextafter(b, math.Inf(-1)), math.Nextafter(b, math.Inf(1)))
		}
		checkBucketOf(t, "fuzz", bounds, keys)
	})
}

// refSampledBounds is the Sampled splitter as it ran before its sample
// copy was sorted by the radix kernel, kept verbatim (sort.Float64s).
func refSampledBounds(c *mpi.Comm, local []float64) ([]float64, error) {
	p := c.Size()
	const perRank = 64
	sorted := append([]float64(nil), local...)
	sort.Float64s(sorted)
	sample := make([]float64, 0, perRank)
	for i := 0; i < perRank; i++ {
		if len(sorted) == 0 {
			break
		}
		sample = append(sample, sorted[i*len(sorted)/perRank])
	}
	pooled, err := mpi.Gatherv(c, sample, 0)
	if err != nil {
		return nil, err
	}
	var bounds []float64
	if c.Rank() == 0 {
		var flat []float64
		for _, blk := range pooled {
			flat = append(flat, blk...)
		}
		sort.Float64s(flat)
		bounds = make([]float64, p-1)
		if len(flat) > 0 {
			for i := range bounds {
				bounds[i] = flat[(i+1)*len(flat)/p]
			}
		}
	}
	return mpi.Bcast(c, bounds, 0)
}

// TestSampledBoundsMatchRef: sorting the sample copy with the radix
// kernel draws the same samples as sort.Float64s did on NaN-free keys,
// so the Sampled splitter's boundaries do not move. (A comparison sort
// leaves −0 and +0 in no particular order, so a zero bound may change
// sign; == treats the two alike, and so does bucketOf.)
func TestSampledBoundsMatchRef(t *testing.T) {
	withZeros := func(n int) []float64 {
		keys := data.UniformKeys(n, -3, 3, 29)
		for i := range keys {
			keys[i] = math.Trunc(keys[i])
			if i%2 == 0 && keys[i] == 0 {
				keys[i] = math.Copysign(0, -1)
			}
		}
		return keys
	}
	dists := map[string][]float64{
		"uniform":     data.UniformKeys(20_000, -500, 500, 30),
		"exponential": data.ExponentialKeys(20_000, 1, 31),
		"zeros":       withZeros(20_000),
		"few":         data.UniformKeys(5, 0, 1, 32),
	}
	for name, keys := range dists {
		for _, np := range []int{1, 2, 4, 7} {
			locals := deal(keys, np)
			err := mpi.Run(np, func(c *mpi.Comm) error {
				got, err := computeBoundaries(c, locals[c.Rank()], Sampled)
				if err != nil {
					return err
				}
				want, err := refSampledBounds(c, locals[c.Rank()])
				if err != nil {
					return err
				}
				if !slices.Equal(got, want) {
					return fmt.Errorf("boundaries %v, reference %v", got, want)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s np=%d: %v", name, np, err)
			}
		}
	}
}
