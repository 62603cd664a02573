package mpi

import (
	"math"
	"reflect"
	"testing"
)

// Named scalar types of every sub-8-byte width. Before the underlying-kind
// probe these all mis-sized to the 8-byte default, quietly inflating wire
// traffic (and breaking cross-type length checks) for any module that
// defines its own key type. A named int or uint encodes at 8 bytes, as
// int and uint do, on 32-bit hosts too.
type (
	nByte    byte
	nInt16   int16
	nUint16  uint16
	nInt32   int32
	nUint32  uint32
	nFloat32 float32
	nInt     int
	nUint    uint
	nFloat64 float64
)

func TestScalarSizeNamedTypes(t *testing.T) {
	cases := []struct {
		name string
		size int
		got  int
	}{
		{"nByte", 1, scalarSize[nByte]()},
		{"nInt16", 2, scalarSize[nInt16]()},
		{"nUint16", 2, scalarSize[nUint16]()},
		{"nInt32", 4, scalarSize[nInt32]()},
		{"nUint32", 4, scalarSize[nUint32]()},
		{"nFloat32", 4, scalarSize[nFloat32]()},
		{"nInt", 8, scalarSize[nInt]()},
		{"nUint", 8, scalarSize[nUint]()},
		{"nFloat64", 8, scalarSize[nFloat64]()},
	}
	for _, c := range cases {
		if c.got != c.size {
			t.Errorf("scalarSize[%s] = %d, want %d", c.name, c.got, c.size)
		}
	}
}

func TestMarshalNamedWidthsRoundTrip(t *testing.T) {
	checkNamedRT(t, []nByte{0, 1, 255}, 1)
	checkNamedRT(t, []nInt16{-32768, -1, 0, 32767}, 2)
	checkNamedRT(t, []nUint16{0, 1, 65535}, 2)
	checkNamedRT(t, []nInt32{-1 << 31, -1, 0, 1<<31 - 1}, 4)
	checkNamedRT(t, []nUint32{0, 1, 1<<32 - 1}, 4)
	checkNamedRT(t, []nFloat32{0, -1.5, 3.25e10}, 4)
	checkNamedRT(t, []nInt{math.MinInt, -1, 0, math.MaxInt}, 8)
	checkNamedRT(t, []nUint{0, 1, math.MaxUint}, 8)
	checkNamedRT(t, []nFloat64{0, -1e300, 2.5}, 8)
}

func checkNamedRT[T Scalar](t *testing.T, in []T, width int) {
	t.Helper()
	wire := AppendMarshal(nil, in)
	if len(wire) != width*len(in) {
		t.Fatalf("%T encoded to %d bytes, want %d (width %d)", in, len(wire), width*len(in), width)
	}
	got, err := Unmarshal[T](wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, got) {
		t.Fatalf("round trip: %v != %v", in, got)
	}
}

func TestAppendMarshalPreservesPrefix(t *testing.T) {
	dst := []byte{0xAA, 0xBB}
	out := AppendMarshal(dst, []int32{1, 2})
	if len(out) != 2+8 {
		t.Fatalf("AppendMarshal len = %d, want 10", len(out))
	}
	if out[0] != 0xAA || out[1] != 0xBB {
		t.Fatalf("prefix clobbered: %v", out[:2])
	}
	got, err := Unmarshal[int32](out[2:])
	if err != nil || !reflect.DeepEqual(got, []int32{1, 2}) {
		t.Fatalf("decoded %v, %v", got, err)
	}
}

func TestAppendMarshalNoReallocWithCapacity(t *testing.T) {
	dst := make([]byte, 0, 64)
	out := AppendMarshal(dst, []float64{1, 2, 3})
	if &out[:1][0] != &dst[:1][0] {
		t.Fatal("AppendMarshal reallocated despite sufficient capacity")
	}
}

func TestUnmarshalIntoReusesCapacity(t *testing.T) {
	wire := AppendMarshal(nil, []float64{1, 2, 3})
	dst := make([]float64, 0, 8)
	out, err := UnmarshalInto(dst, wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, []float64{1, 2, 3}) {
		t.Fatalf("decoded %v", out)
	}
	if &out[0] != &dst[:1][0] {
		t.Fatal("UnmarshalInto reallocated despite sufficient capacity")
	}
	// Insufficient capacity grows.
	small := make([]float64, 0, 1)
	out2, err := UnmarshalInto(small, wire)
	if err != nil || len(out2) != 3 {
		t.Fatalf("grown decode: %v, %v", out2, err)
	}
	// Length mismatch errors.
	if _, err := UnmarshalInto(dst, wire[:7]); err == nil {
		t.Fatal("want error for 7 bytes into float64s")
	}
}
