package mpi

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// specialFloat draws from the values a summation kernel is most likely
// to get wrong: signed zeros, infinities, NaNs with assorted payloads
// and signs, subnormals, and arbitrary bit patterns.
func specialFloat(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return math.Copysign(0, float64(rng.Intn(2)*2-1))
	case 1:
		return math.Inf(rng.Intn(2)*2 - 1)
	case 2: // NaN: exponent all ones, random nonzero mantissa and sign
		return math.Float64frombits(0x7ff0000000000000 | uint64(rng.Intn(2))<<63 | (rng.Uint64()&(1<<52-1) | 1))
	case 3: // subnormal of either sign
		return math.Float64frombits(uint64(rng.Intn(2))<<63 | rng.Uint64()&(1<<52-1))
	case 4:
		return math.Float64frombits(rng.Uint64())
	default:
		return rng.NormFloat64() * math.Pow(2, float64(rng.Intn(40)-20))
	}
}

// specialInt draws int64s that include both ends of the range, so the
// sums wrap around.
func specialInt(rng *rand.Rand) int64 {
	switch rng.Intn(4) {
	case 0:
		return math.MaxInt64 - rng.Int63n(4)
	case 1:
		return math.MinInt64 + rng.Int63n(4)
	default:
		return int64(rng.Uint64())
	}
}

// checkSumFold folds each payload into dst twice — through reduceFromWire
// with sum, which must be OpSum (the direct fold), and with an
// unrecognised closure around it (the generic indirect-call loop) — and
// requires identical bits. The caller names OpSum at a concrete type:
// inside generic code OpSum[T] is a different func value, which takes
// the generic path.
func checkSumFold[T float64 | int64](t *testing.T, rng *rand.Rand, sum Op[T], draw func(*rand.Rand) T, bits func(T) uint64) {
	t.Helper()
	generic := func(a, b T) T { return sum(a, b) }
	if !isSum(sum) || isSum[T](generic) {
		t.Fatalf("isSum(OpSum)=%t isSum(closure)=%t, want true, false", isSum(sum), isSum[T](generic))
	}
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(70)
		fast, slow, src := make([]T, n), make([]T, n), make([]T, n)
		for i := range fast {
			fast[i] = draw(rng)
			slow[i] = fast[i]
			src[i] = draw(rng)
		}
		wire := AppendMarshal(nil, src)
		if err := reduceFromWire(fast, wire, sum); err != nil {
			t.Fatal(err)
		}
		if err := reduceFromWire(slow, wire, generic); err != nil {
			t.Fatal(err)
		}
		for i := range fast {
			if bits(fast[i]) != bits(slow[i]) {
				t.Fatalf("trial %d element %d: direct fold %#x, generic %#x", trial, i, bits(fast[i]), bits(slow[i]))
			}
		}
		if n == 0 {
			continue
		}
		if err := reduceFromWire(fast, wire[:len(wire)-1], sum); !errors.Is(err, ErrLengthMismatch) {
			t.Fatalf("short payload: err %v, want ErrLengthMismatch", err)
		}
		if err := reduceFromWire(fast[:n-1], wire, sum); !errors.Is(err, ErrLengthMismatch) {
			t.Fatalf("long payload: err %v, want ErrLengthMismatch", err)
		}
	}
}

// TestCodePtrMatchesReflect: the hand-read code pointer isSum compares is
// the one reflect reports, for predefined operators, closures with and
// without captures, and nil.
func TestCodePtrMatchesReflect(t *testing.T) {
	scale := 2.0
	for i, op := range []Op[float64]{
		OpSum[float64], OpMax[float64],
		func(a, b float64) float64 { return a + b },
		func(a, b float64) float64 { return scale*a + b },
		nil,
	} {
		if got, want := codePtr(op), reflect.ValueOf(op).Pointer(); got != want {
			t.Errorf("op %d: codePtr %#x, reflect %#x", i, got, want)
		}
	}
}

// TestReduceFromWireSumMatchesGeneric: the inline-+ fold taken for
// OpSum on []float64 and []int64 is bit-identical to calling OpSum per
// element, on payloads full of ±0, ±Inf, NaNs, subnormals and int64
// wraparound, and still rejects a payload of the wrong length.
func TestReduceFromWireSumMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	t.Run("float64", func(t *testing.T) {
		checkSumFold(t, rng, OpSum[float64], specialFloat, math.Float64bits)
	})
	t.Run("int64", func(t *testing.T) {
		checkSumFold(t, rng, OpSum[int64], specialInt, func(v int64) uint64 { return uint64(v) })
	})
}
