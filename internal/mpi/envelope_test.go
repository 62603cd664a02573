package mpi

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestMarshalRoundTripFloat64(t *testing.T) {
	in := []float64{0, 1, -1, math.Pi, math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, math.MaxFloat64}
	out, err := Unmarshal[float64](Marshal(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch: %v != %v", in, out)
	}
}

func TestMarshalRoundTripNaN(t *testing.T) {
	out, err := Unmarshal[float64](Marshal([]float64{math.NaN()}))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(out[0]) {
		t.Fatalf("NaN did not survive round trip: %v", out[0])
	}
}

func TestMarshalRoundTripInts(t *testing.T) {
	ints := []int{0, 1, -1, math.MaxInt, math.MinInt, 42}
	got, err := Unmarshal[int](Marshal(ints))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ints, got) {
		t.Fatalf("int round trip: %v != %v", ints, got)
	}
}

func TestMarshalRoundTripAllWidths(t *testing.T) {
	checkRT(t, []byte{0, 1, 255})
	checkRT(t, []int16{-32768, 0, 32767})
	checkRT(t, []uint16{0, 65535})
	checkRT(t, []int32{math.MinInt32, 0, math.MaxInt32})
	checkRT(t, []uint32{0, math.MaxUint32})
	checkRT(t, []int64{math.MinInt64, 0, math.MaxInt64})
	checkRT(t, []uint64{0, math.MaxUint64})
	checkRT(t, []uint{0, math.MaxUint})
	checkRT(t, []float32{0, -1.5, math.MaxFloat32})
}

func checkRT[T Scalar](t *testing.T, in []T) {
	t.Helper()
	got, err := Unmarshal[T](Marshal(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, got) {
		t.Fatalf("round trip: %v != %v", in, got)
	}
}

// Named scalar types exercise the generic fallback paths.
type namedFloat float64
type namedInt int32

func TestMarshalNamedTypes(t *testing.T) {
	checkRT(t, []namedFloat{0, 1.25, -math.Pi, 1e300})
	checkRT(t, []namedInt{-7, 0, 7, math.MaxInt32})
}

func TestMarshalEmptyAndNil(t *testing.T) {
	if got := Marshal[float64](nil); len(got) != 0 {
		t.Fatalf("Marshal(nil) = %v, want empty", got)
	}
	out, err := Unmarshal[float64](nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("Unmarshal(nil) = %v, %v", out, err)
	}
}

func TestUnmarshalBadLength(t *testing.T) {
	if _, err := Unmarshal[float64]([]byte{1, 2, 3}); err == nil {
		t.Fatal("want error for 3 bytes into float64s")
	}
}

func TestMarshalQuickFloat64(t *testing.T) {
	f := func(xs []float64) bool {
		got, err := Unmarshal[float64](Marshal(xs))
		if err != nil {
			return false
		}
		if len(got) != len(xs) {
			return false
		}
		for i := range xs {
			if got[i] != xs[i] && !(math.IsNaN(got[i]) && math.IsNaN(xs[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalQuickInt(t *testing.T) {
	f := func(xs []int64) bool {
		got, err := Unmarshal[int64](Marshal(xs))
		return err == nil && reflect.DeepEqual(normalizeEmpty(got), normalizeEmpty(xs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func normalizeEmpty[T any](xs []T) []T {
	if len(xs) == 0 {
		return nil
	}
	return xs
}

func TestEnvelopeWireRoundTrip(t *testing.T) {
	e := &envelope{
		kind: kindData, src: 3, wsrc: 7, wdst: 2, ctx: 12, tag: 99, seq: 1 << 40,
		data: []byte("hello, world"),
	}
	got, err := parseWire(e.appendWire(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.kind != e.kind || got.src != e.src || got.wsrc != e.wsrc ||
		got.wdst != e.wdst || got.ctx != e.ctx || got.tag != e.tag || got.seq != e.seq {
		t.Fatalf("header mismatch: %+v != %+v", got, e)
	}
	if !bytes.Equal(got.data, e.data) {
		t.Fatalf("payload mismatch: %q != %q", got.data, e.data)
	}
}

func TestEnvelopeWireEmptyPayload(t *testing.T) {
	e := &envelope{kind: kindAck, src: 0, wsrc: 0, wdst: 1, seq: 5}
	got, err := parseWire(e.appendWire(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.seq != 5 || got.kind != kindAck || len(got.data) != 0 {
		t.Fatalf("empty payload round trip: %+v", got)
	}
}

func TestParseWireErrors(t *testing.T) {
	if _, err := parseWire([]byte{1, 2}); err == nil {
		t.Fatal("want error for truncated header")
	}
	e := &envelope{kind: kindData, data: []byte("abc")}
	wire := e.appendWire(nil)
	if _, err := parseWire(wire[:len(wire)-1]); err == nil {
		t.Fatal("want error for truncated payload")
	}
}

func TestEnvelopeWireQuick(t *testing.T) {
	f := func(src, wsrc, wdst int32, ctx, tag int32, seq int64, data []byte) bool {
		e := &envelope{kind: kindData, src: int(src), wsrc: int(wsrc), wdst: int(wdst), ctx: ctx, tag: tag, seq: seq, data: data}
		got, err := parseWire(e.appendWire(nil))
		if err != nil {
			return false
		}
		return got.src == e.src && got.wsrc == e.wsrc && got.wdst == e.wdst &&
			got.ctx == e.ctx && got.tag == e.tag && got.seq == e.seq &&
			bytes.Equal(got.data, e.data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStatusCount(t *testing.T) {
	st := Status{Bytes: 24}
	n, err := st.Count(8)
	if err != nil || n != 3 {
		t.Fatalf("Count(8) = %d, %v; want 3, nil", n, err)
	}
	if _, err := st.Count(7); err == nil {
		t.Fatal("want error for non-multiple element size")
	}
	if _, err := st.Count(0); err == nil {
		t.Fatal("want error for zero element size")
	}
}
