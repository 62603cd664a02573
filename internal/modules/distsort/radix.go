package distsort

import "math"

// RadixSortFloat64s sorts keys in place with the module's local sort: an
// LSD radix sort in six 11-bit digits over an order-preserving bit
// transform of IEEE-754 doubles, run by every rank of Sort and by the
// SequentialSort baseline. It is the "improve the algorithm beyond the
// module" answer (learning outcome 15) to a comparison sort of the local
// phase: O(n) passes instead of O(n log n) comparisons, a win exactly
// when buckets are big, which BenchmarkAblation_LocalSort measures
// against sort.Float64s. The order is total and deterministic: −0 sorts
// before +0 and NaNs sort last (after +Inf), whatever their sign.
func RadixSortFloat64s(keys []float64) {
	radixSort(keys, make([]float64, len(keys)))
}

// The kernel's digits: six of 11 bits cover a 64-bit key (the last has
// 9). Five passes would need 13-bit digits, whose table of counts
// (320 KiB) cannot live on the stack as this one (96 KiB) does.
const (
	digitBits = 11
	digitMask = 1<<digitBits - 1
	digits    = (64 + digitBits - 1) / digitBits
)

// radixSort is the kernel: it sorts keys in place using scratch, which
// must be at least as long as keys and must not overlap it, and
// allocates nothing. One pass builds the histograms of all six 11-bit
// key digits; each digit on which the keys differ then costs one stable
// scatter between keys and scratch, with the transform applied as the
// keys are read, so the floats themselves are what moves.
func radixSort(keys, scratch []float64) {
	n := len(keys)
	if n < 2 {
		return
	}
	var counts [digits][1 << digitBits]int
	for _, k := range keys {
		v := orderedBits(k)
		counts[0][v&digitMask]++
		counts[1][v>>11&digitMask]++
		counts[2][v>>22&digitMask]++
		counts[3][v>>33&digitMask]++
		counts[4][v>>44&digitMask]++
		counts[5][v>>55&digitMask]++
	}
	first := orderedBits(keys[0])
	src, dst := keys, scratch[:n]
	for d := range counts {
		c := &counts[d]
		shift := digitBits * d
		if c[first>>shift&digitMask] == n {
			continue // all keys share this digit: skip the pass
		}
		total := 0
		for i, cnt := range c {
			c[i], total = total, total+cnt
		}
		for _, k := range src {
			b := orderedBits(k) >> shift & digitMask
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// orderedBits maps a float64 to a uint64 whose unsigned order is the
// sort order: flip all bits of negatives, flip only the sign bit of
// non-negatives. A NaN is keyed as if its sign bit were clear, which
// puts every NaN above +Inf.
func orderedBits(f float64) uint64 {
	b := math.Float64bits(f)
	if f != f {
		return b | 1<<63
	}
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}
