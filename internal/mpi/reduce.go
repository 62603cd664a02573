package mpi

import (
	"reflect"
	"unsafe"
)

// Op is an elementwise reduction operator for Reduce, Allreduce and Scan.
// It must be associative; the tree-based algorithms additionally assume
// commutativity, which all the predefined operators satisfy.
type Op[T Scalar] func(a, b T) T

// OpSum is the MPI_SUM analogue.
func OpSum[T Scalar](a, b T) T { return a + b }

// OpMax is the MPI_MAX analogue.
func OpMax[T Scalar](a, b T) T {
	if a > b {
		return a
	}
	return b
}

// OpMin is the MPI_MIN analogue.
func OpMin[T Scalar](a, b T) T {
	if a < b {
		return a
	}
	return b
}

// The code pointers of the predefined sum for the two element types
// every module's hot loop reduces. A func value's code pointer is the
// same wherever the instantiation is named, so mpi.OpSum passed from any
// package matches; a user-written a+b closure does not, and keeps the
// generic path.
var (
	opSumFloat64 = reflect.ValueOf(OpSum[float64]).Pointer()
	opSumInt64   = reflect.ValueOf(OpSum[int64]).Pointer()
)

// isSum reports whether op is OpSum[float64] or OpSum[int64].
func isSum[T Scalar](op Op[T]) bool {
	p := codePtr(op)
	return p == opSumFloat64 || p == opSumInt64
}

// codePtr is reflect.ValueOf(op).Pointer(): a non-nil func value points
// at a closure record whose first word is the code pointer. It reads that
// word itself because reflect.Value.Pointer leaks its receiver: op would
// escape, and with it every collective's hop state and the caller's
// buffer the hops index, which would cost a stack-allocated buffer a heap
// allocation per call.
func codePtr[T Scalar](op Op[T]) uintptr {
	fv := *(*unsafe.Pointer)(unsafe.Pointer(&op))
	if fv == nil {
		return 0
	}
	return *(*uintptr)(fv)
}

// wireView is b read as a []T sharing its bytes, the operand the reduce
// kernels fold from. ok is false unless the wire is the memory image of a
// []T (nativeWire) and b is aligned for T; every pooled buffer is.
func wireView[T Scalar](b []byte, size int) (w []T, ok bool) {
	var z T
	p := unsafe.Pointer(unsafe.SliceData(b))
	if !nativeWire[T](size) || uintptr(p)%unsafe.Alignof(z) != 0 {
		return nil, false
	}
	return unsafe.Slice((*T)(p), len(b)/size), true
}

// reduceFromWire folds a wire-format payload into dst elementwise without
// materializing a decoded slice: dst[i] = op(dst[i], decode(b, i)). It
// folds from a typed view of the wire where wireView allows one, and
// decodes element by element otherwise. On []float64 and []int64 — the
// element types every module's hot loop reduces — OpSum folds with an
// inline + instead of an indirect call per element (bit-identical:
// OpSum(a, b) is a + b). The payload length must match dst exactly.
func reduceFromWire[T Scalar](dst []T, b []byte, op Op[T]) error {
	size := scalarSize[T]()
	if len(b) != len(dst)*size {
		return decodeInto(dst, b) // reuse its length-mismatch error
	}
	w, ok := wireView[T](b, size)
	if !ok {
		for i := range dst {
			dst[i] = op(dst[i], scalarFromBytes[T](b[i*size:], size))
		}
		return nil
	}
	switch d := any(dst).(type) {
	case []float64:
		if isSum(op) {
			// dst goes in the register the add overwrites and the wire
			// is its memory operand, so NaN + NaN keeps dst's payload as
			// OpSum's compiled a + b does.
			// TestReduceFromWireSumMatchesGeneric pins it.
			w := any(w).([]float64)[:len(d)]
			for i, v := range d {
				d[i] = v + w[i]
			}
			return nil
		}
	case []int64:
		if isSum(op) {
			w := any(w).([]int64)[:len(d)]
			for i := range d {
				d[i] += w[i]
			}
			return nil
		}
	}
	for i := range dst {
		dst[i] = op(dst[i], w[i])
	}
	return nil
}
