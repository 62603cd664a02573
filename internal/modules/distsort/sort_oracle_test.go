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
		b := bucketOf(k, boundaries)
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
