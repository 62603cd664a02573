package mpi_test

import (
	"math"
	"testing"

	"repro/internal/mpi"
)

// TestSumFoldRecognisedAcrossPackages: mpi.OpSum named outside package
// mpi — as every module passes it — takes the direct fold, while a
// user-written sum with the same arithmetic is not mistaken for it and
// still folds correctly through the generic path.
func TestSumFoldRecognisedAcrossPackages(t *testing.T) {
	if !mpi.IsSum(mpi.OpSum[float64]) || !mpi.IsSum(mpi.OpSum[int64]) {
		t.Fatal("mpi.OpSum instantiated outside package mpi is not recognised")
	}
	userSum := func(a, b float64) float64 { return a + b }
	if mpi.IsSum[float64](userSum) {
		t.Fatal("a user-written a+b was taken for mpi.OpSum")
	}
	if mpi.IsSum(mpi.OpMax[float64]) || mpi.IsSum(mpi.OpMin[int64]) {
		t.Fatal("another predefined operator was taken for mpi.OpSum")
	}

	const tiny = math.SmallestNonzeroFloat64
	negZero := math.Copysign(0, -1)
	src := []float64{1.5, math.Inf(-1), negZero, 3 * tiny}
	want := []float64{2.5, math.Inf(-1), 0, 5 * tiny}
	for _, op := range []mpi.Op[float64]{mpi.OpSum[float64], userSum} {
		dst := []float64{1, 3, 0, 2 * tiny}
		if err := mpi.ReduceFromWire(dst, mpi.AppendMarshal(nil, src), op); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
				t.Fatalf("element %d: got %g, want %g", i, dst[i], want[i])
			}
		}
	}
	ints := []int64{math.MaxInt64, 7}
	if err := mpi.ReduceFromWire(ints, mpi.AppendMarshal(nil, []int64{1, -8}), mpi.OpSum[int64]); err != nil {
		t.Fatal(err)
	}
	if ints[0] != math.MinInt64 || ints[1] != -1 {
		t.Fatalf("int64 fold: got %v, want [%d -1]", ints, int64(math.MinInt64))
	}
}
