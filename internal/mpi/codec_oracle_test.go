package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"unsafe"
)

// The wire codec's oracle: the per-type element loops the codec ran
// before it became a memory copy, kept verbatim. AppendMarshal,
// UnmarshalInto/decodeInto and the two reduce kernels must produce the
// same bytes and the same bits as these, on the native path and on the
// element-wise fallback alike.

func refAppendMarshal[T Scalar](dst []byte, xs []T) []byte {
	switch v := any(xs).(type) {
	case []byte:
		return append(dst, v...)
	case []float64:
		for _, x := range v {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
		}
	case []float32:
		for _, x := range v {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(x))
		}
	case []int:
		for _, x := range v {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(x)))
		}
	case []uint:
		for _, x := range v {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(x))
		}
	case []int64:
		for _, x := range v {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(x))
		}
	case []uint64:
		for _, x := range v {
			dst = binary.LittleEndian.AppendUint64(dst, x)
		}
	case []int32:
		for _, x := range v {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(x))
		}
	case []uint32:
		for _, x := range v {
			dst = binary.LittleEndian.AppendUint32(dst, x)
		}
	case []int16:
		for _, x := range v {
			dst = binary.LittleEndian.AppendUint16(dst, uint16(x))
		}
	case []uint16:
		for _, x := range v {
			dst = binary.LittleEndian.AppendUint16(dst, x)
		}
	default:
		// Named types (e.g. type ID int64) fall through the concrete
		// switch; encode element-wise via the generic path.
		size := scalarSize[T]()
		for _, x := range xs {
			dst = appendScalar(dst, x, size)
		}
	}
	return dst
}

func refDecode[T Scalar](out []T, b []byte, size int) {
	switch v := any(out).(type) {
	case []byte:
		copy(v, b)
	case []float64:
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
		}
	case []float32:
		for i := range v {
			v[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
		}
	case []int:
		for i := range v {
			v[i] = int(int64(binary.LittleEndian.Uint64(b[i*8:])))
		}
	case []uint:
		for i := range v {
			v[i] = uint(binary.LittleEndian.Uint64(b[i*8:]))
		}
	case []int64:
		for i := range v {
			v[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
		}
	case []uint64:
		for i := range v {
			v[i] = binary.LittleEndian.Uint64(b[i*8:])
		}
	case []int32:
		for i := range v {
			v[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
		}
	case []uint32:
		for i := range v {
			v[i] = binary.LittleEndian.Uint32(b[i*4:])
		}
	case []int16:
		for i := range v {
			v[i] = int16(binary.LittleEndian.Uint16(b[i*2:]))
		}
	case []uint16:
		for i := range v {
			v[i] = binary.LittleEndian.Uint16(b[i*2:])
		}
	default:
		for i := range out {
			out[i] = scalarFromBytes[T](b[i*size:], size)
		}
	}
}

func refReduceFromWire[T Scalar](dst []T, b []byte, op Op[T]) error {
	size := scalarSize[T]()
	if len(b) != len(dst)*size {
		return decodeInto(dst, b) // reuse its length-mismatch error
	}
	switch d := any(dst).(type) {
	case []float64:
		if isSum(op) {
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

// opProd is a predefined-style operator that is not OpSum, so the fold
// takes its indirect-call path.
func opProd[T Scalar](a, b T) T { return a * b }

// codecPatterns are the bit patterns every element width is fed, read
// through the element type: ±0, the smallest and largest subnormal, ±Inf,
// quiet and signalling NaNs with payloads of either sign, 1.0, and the
// integer extremes (0, ±1, min and max of signed and unsigned).
var codecPatterns = map[int][]uint64{
	1: {0, 1, 0x7f, 0x80, 0xff},
	2: {0, 1, 0x7fff, 0x8000, 0xffff, 0x00ff, 0x3c00},
	4: {0, 1 << 31, 1, 1<<23 - 1, 0x7f800000, 0xff800000, 0x7fc00001, 0x7f800001,
		0xffc0beef, 0x3f800000, 1<<31 - 1, 1<<32 - 1},
	8: {0, 1 << 63, 1, 1<<52 - 1, 0x7ff0 << 48, 0xfff0 << 48, 0x7ff8000000000001,
		0x7ff0000000000001, 0xfff80000deadbeef, 0x3ff0 << 48, 1<<63 - 1, 1<<64 - 1},
}

// fromPattern is the T whose wire encoding is the low size bytes of bits.
func fromPattern[T Scalar](bits uint64, size int) T {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], bits)
	return scalarFromBytes[T](b[:], size)
}

// codecValues draws n values of T: the patterns at every other index, so
// each length past twice their count holds all of them, and random bits
// between.
func codecValues[T Scalar](rng *rand.Rand, n int) []T {
	size := scalarSize[T]()
	pats := codecPatterns[size]
	xs := make([]T, n)
	for i := range xs {
		if i%2 == 0 {
			xs[i] = fromPattern[T](pats[(i/2)%len(pats)], size)
		} else {
			xs[i] = fromPattern[T](rng.Uint64(), size)
		}
	}
	return xs
}

// alignedAt returns an n-byte buffer that starts off bytes past an
// 8-byte boundary.
func alignedAt(n, off int) []byte {
	words := make([]uint64, (off+n)/8+1)
	return memBytes(words)[off : off+n]
}

// bitsOf is x's wire encoding read as a number, to compare and print
// elements bit for bit.
func bitsOf[T Scalar](x T) uint64 {
	var b [8]byte
	appendScalar(b[:0], x, scalarSize[T]())
	return binary.LittleEndian.Uint64(b[:])
}

// sameBits reports the first index at which a and b differ in their bits,
// or -1.
func sameBits[T Scalar](a, b []T) int {
	if len(a) != len(b) {
		return 0
	}
	if bytes.Equal(memBytes(a), memBytes(b)) {
		return -1
	}
	for i := range a {
		if bitsOf(a[i]) != bitsOf(b[i]) {
			return i
		}
	}
	return -1
}

// checkWire holds the codec to the oracle on one wire image placed off
// bytes past an 8-byte boundary: the decode, the re-encode and, for every
// op, both folds into acc. native says which path must have run: the
// memory copy and typed view (the view only where the wire is aligned for
// T), or the element-wise fallback.
func checkWire[T Scalar](t *testing.T, wire []byte, off int, acc []T, ops []Op[T], native bool) {
	t.Helper()
	size := scalarSize[T]()
	var z T
	if got := nativeWire[T](size); got != native {
		t.Fatalf("%T: nativeWire = %t, want %t", z, got, native)
	}
	b := alignedAt(len(wire), off)
	copy(b, wire)
	_, view := wireView[T](b, size)
	if wantView := native && off%int(unsafe.Alignof(z)) == 0; view != wantView {
		t.Fatalf("%T at offset %d: wireView ok = %t, want %t", z, off, view, wantView)
	}

	n := len(b) / size
	want := make([]T, n)
	refDecode(want, b, size)
	// Recycled targets hold junk, so a byte the decode skips shows.
	junk := func(m int) []T {
		xs := make([]T, m)
		img := memBytes(xs)
		for i := range img {
			img[i] = 0xa5
		}
		return xs
	}
	got, err := UnmarshalInto(junk(n + 3)[:0], b)
	if err != nil {
		t.Fatal(err)
	}
	if i := sameBits(got, want); i >= 0 {
		t.Fatalf("%T n=%d off=%d: UnmarshalInto differs from the oracle at element %d", z, n, off, i)
	}
	into := junk(n)
	if err := decodeInto(into, b); err != nil {
		t.Fatal(err)
	}
	if i := sameBits(into, want); i >= 0 {
		t.Fatalf("%T n=%d off=%d: decodeInto differs from the oracle at element %d", z, n, off, i)
	}
	if enc, ref := AppendMarshal(nil, got), refAppendMarshal(nil, want); !bytes.Equal(enc, ref) || !bytes.Equal(enc, b) {
		t.Fatalf("%T n=%d off=%d: re-encoding differs from the oracle or the input", z, n, off)
	}

	acc = acc[:n]
	for k, op := range ops {
		fast, slow := append([]T(nil), acc...), append([]T(nil), acc...)
		errFast, errSlow := reduceFromWire(fast, b, op), refReduceFromWire(slow, b, op)
		if errFast != nil || errSlow != nil {
			t.Fatalf("%T op %d: errors %v / %v", z, k, errFast, errSlow)
		}
		if i := sameBits(fast, slow); i >= 0 {
			t.Fatalf("%T n=%d off=%d op %d: fold differs from the oracle at element %d: %#x vs %#x",
				z, n, off, k, i, bitsOf(fast[i]), bitsOf(slow[i]))
		}
	}
	if n > 0 && off == 0 {
		if err := reduceFromWire(acc[:n-1], b, ops[0]); !errors.Is(err, ErrLengthMismatch) {
			t.Fatalf("%T: long payload folded with err %v", z, err)
		}
		if err := reduceFromWire(acc, b[:len(b)-1], ops[0]); !errors.Is(err, ErrLengthMismatch) {
			t.Fatalf("%T: short payload folded with err %v", z, err)
		}
	}
}

// checkCodec drives one element type through checkWire at every length
// from 0 to 257 and every offset from 0 to 7, and checks the encoding
// itself, appended after a prefix with and without spare capacity.
func checkCodec[T Scalar](t *testing.T, rng *rand.Rand, ops []Op[T], native bool) {
	t.Helper()
	for n := 0; n <= 257; n++ {
		xs := codecValues[T](rng, n)
		acc := codecValues[T](rng, n)
		prefix := []byte{0xa5, 0x5a, 0x0f}
		want := refAppendMarshal(append([]byte(nil), prefix...), xs)
		for _, spare := range []int{0, len(want)} {
			dst := append(make([]byte, 0, len(prefix)+spare), prefix...)
			if got := AppendMarshal(dst, xs); !bytes.Equal(got, want) {
				t.Fatalf("%T n=%d: AppendMarshal differs from the oracle", xs, n)
			}
		}
		for off := 0; off < 8; off++ {
			checkWire(t, want[len(prefix):], off, acc, ops, native)
		}
	}
}

// TestCodecMatchesRef: the codec produces the oracle's bytes and bits for
// every Scalar type and three named ones, on values full of ±0,
// subnormals, ±Inf, NaN payloads and integer extremes, at lengths 0–257
// and wire offsets 0–7 — once on this host's native path, with the
// unaligned offsets taking the reduce fallback, and once with the
// element-wise fallback forced throughout. OpSum on float64 and int64 is
// named at its concrete type so the direct fold runs.
func TestCodecMatchesRef(t *testing.T) {
	one := uint16(1)
	if le := *(*byte)(unsafe.Pointer(&one)) == 1; hostLittleEndian != le {
		t.Fatalf("hostLittleEndian = %t, but the host stores 1 as %#x first", hostLittleEndian, *(*byte)(unsafe.Pointer(&one)))
	}
	for _, mode := range []string{"native", "fallback"} {
		t.Run(mode, func(t *testing.T) {
			if mode == "fallback" {
				if raceEnabled {
					t.Skip("the fallback makes no unsafe view for checkptr to check; the non-race run covers it")
				}
				defer forceCodecFallback()()
			} else if !hostLittleEndian {
				t.Skip("big-endian host: the fallback is the only path")
			}
			// Every type is native on a little-endian host but int and
			// uint on a 32-bit one, whose memory width is not the wire's.
			native := mode == "native"
			nativeInt := native && strconv.IntSize == 64
			rng := rand.New(rand.NewSource(30))
			checkCodec(t, rng, []Op[float64]{OpSum[float64], OpMax[float64], opProd[float64], func(a, b float64) float64 { return a - b }}, native)
			checkCodec(t, rng, []Op[int64]{OpSum[int64], OpMin[int64], func(a, b int64) int64 { return a - b }}, native)
			checkCodec(t, rng, []Op[float32]{OpSum[float32], OpMin[float32], func(a, b float32) float32 { return a - b }}, native)
			checkCodec(t, rng, []Op[byte]{OpSum[byte], OpMax[byte]}, native)
			checkCodec(t, rng, []Op[int16]{OpSum[int16], opProd[int16]}, native)
			checkCodec(t, rng, []Op[uint16]{OpSum[uint16], OpMin[uint16]}, native)
			checkCodec(t, rng, []Op[int32]{OpSum[int32], OpMax[int32]}, native)
			checkCodec(t, rng, []Op[uint32]{OpSum[uint32], opProd[uint32]}, native)
			checkCodec(t, rng, []Op[uint64]{OpSum[uint64], OpMax[uint64]}, native)
			checkCodec(t, rng, []Op[int]{OpSum[int], OpMin[int], func(a, b int) int { return a - b }}, nativeInt)
			checkCodec(t, rng, []Op[uint]{OpSum[uint], OpMax[uint]}, nativeInt)
			checkCodec(t, rng, []Op[namedFloat]{OpSum[namedFloat], OpMax[namedFloat]}, native)
			checkCodec(t, rng, []Op[nInt16]{OpSum[nInt16], OpMin[nInt16]}, native)
			checkCodec(t, rng, []Op[nFloat32]{OpSum[nFloat32], opProd[nFloat32]}, native)
		})
	}
}

// FuzzCodec holds the codec to the oracle on arbitrary wire bytes at an
// arbitrary offset from an 8-byte boundary, read as float64, int64,
// float32, int16 and byte elements (the input trimmed to a whole number
// of each), folded into an accumulator drawn from the same bytes.
func FuzzCodec(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add(AppendMarshal(nil, []float64{1.5, math.NaN(), math.Inf(-1), math.Copysign(0, -1)}), uint8(0))
	f.Add(AppendMarshal(nil, []float64{math.Float64frombits(0x7ff0000000000001), math.SmallestNonzeroFloat64}), uint8(3))
	f.Add(AppendMarshal(nil, []int64{math.MinInt64, -1, 0, math.MaxInt64}), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, off uint8) {
		o := int(off % 8)
		fuzzWire(t, data, o, []Op[float64]{OpSum[float64], OpMax[float64]})
		fuzzWire(t, data, o, []Op[int64]{OpSum[int64], func(a, b int64) int64 { return a - b }})
		fuzzWire(t, data, o, []Op[float32]{OpSum[float32]})
		fuzzWire(t, data, o, []Op[int16]{OpSum[int16]})
		fuzzWire(t, data, o, []Op[byte]{OpSum[byte]})
	})
}

func fuzzWire[T Scalar](t *testing.T, data []byte, off int, ops []Op[T]) {
	size := scalarSize[T]()
	wire := data[:len(data)/size*size]
	acc := make([]T, len(wire)/size)
	for i := range acc {
		// The accumulator is the wire read backwards, so NaNs meet NaNs.
		acc[i] = scalarFromBytes[T](wire[len(wire)-(i+1)*size:], size)
	}
	checkWire(t, wire, off, acc, ops, hostLittleEndian)
}
