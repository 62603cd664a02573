package mpi

import (
	"encoding/binary"
	"math"
	"reflect"
	"unsafe"
)

// Op is an elementwise reduction operator for Reduce, Allreduce and Scan.
// It must be associative; the tree-based algorithms additionally assume
// commutativity, which all the predefined operators satisfy.
type Op[T Scalar] func(a, b T) T

// OpSum is the MPI_SUM analogue.
func OpSum[T Scalar](a, b T) T { return a + b }

// OpProd is the MPI_PROD analogue.
func OpProd[T Scalar](a, b T) T { return a * b }

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

// reduceFromWire folds a wire-format payload into dst elementwise without
// materializing a decoded slice: dst[i] = op(dst[i], decode(b, i)). The
// []float64 and []int64 cases — the element types every module's hot loop
// reduces — decode straight off the byte stream, and when op is OpSum
// they fold with an inline + instead of an indirect call per element
// (bit-identical: OpSum(a, b) is a + b). Other types go through the
// generic scalar decoder. The payload length must match dst exactly.
func reduceFromWire[T Scalar](dst []T, b []byte, op Op[T]) error {
	size := scalarSize[T]()
	if len(b) != len(dst)*size {
		return decodeInto(dst, b) // reuse its length-mismatch error
	}
	switch d := any(dst).(type) {
	case []float64:
		if isSum(op) {
			// v + wire, not d[i] += wire: the compiler then keeps dst in
			// the register the add overwrites, so NaN + NaN keeps dst's
			// payload as OpSum's compiled a + b does (d[i] += wire folds
			// the load of d[i] into the add and keeps the wire's).
			// TestReduceFromWireSumMatchesGeneric pins it.
			for i, v := range d {
				d[i] = v + math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
			}
			break
		}
		f := any(op).(Op[float64])
		for i := range d {
			d[i] = f(d[i], math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:])))
		}
	case []int64:
		if isSum(op) {
			for i := range d {
				d[i] += int64(binary.LittleEndian.Uint64(b[i*8:]))
			}
			break
		}
		f := any(op).(Op[int64])
		for i := range d {
			d[i] = f(d[i], int64(binary.LittleEndian.Uint64(b[i*8:])))
		}
	default:
		for i := range dst {
			dst[i] = op(dst[i], scalarFromBytes[T](b[i*size:], size))
		}
	}
	return nil
}

// reduceFromWireLeft is reduceFromWire with the wire operand on the left:
// dst[i] = op(decode(b, i), dst[i]). Scan's chain folds the incoming
// prefix from the left, an order that matters for non-commutative
// operators, so it gets its own kernel rather than reusing the
// commutative-friendly one.
func reduceFromWireLeft[T Scalar](dst []T, b []byte, op Op[T]) error {
	size := scalarSize[T]()
	if len(b) != len(dst)*size {
		return decodeInto(dst, b)
	}
	switch d := any(dst).(type) {
	case []float64:
		f := any(op).(Op[float64])
		for i := range d {
			d[i] = f(math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:])), d[i])
		}
	case []int64:
		f := any(op).(Op[int64])
		for i := range d {
			d[i] = f(int64(binary.LittleEndian.Uint64(b[i*8:])), d[i])
		}
	default:
		for i := range dst {
			dst[i] = op(scalarFromBytes[T](b[i*size:], size), dst[i])
		}
	}
	return nil
}
