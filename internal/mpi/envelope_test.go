package mpi

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestMarshalRoundTripFloat64(t *testing.T) {
	in := []float64{0, 1, -1, math.Pi, math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, math.MaxFloat64}
	out, err := Unmarshal[float64](AppendMarshal(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch: %v != %v", in, out)
	}
}

func TestMarshalRoundTripNaN(t *testing.T) {
	out, err := Unmarshal[float64](AppendMarshal(nil, []float64{math.NaN()}))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(out[0]) {
		t.Fatalf("NaN did not survive round trip: %v", out[0])
	}
}

func TestMarshalRoundTripInts(t *testing.T) {
	ints := []int{0, 1, -1, math.MaxInt, math.MinInt, 42}
	got, err := Unmarshal[int](AppendMarshal(nil, ints))
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
	got, err := Unmarshal[T](AppendMarshal(nil, in))
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
	if got := AppendMarshal[float64](nil, nil); len(got) != 0 {
		t.Fatalf("AppendMarshal(nil, nil) = %v, want empty", got)
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
		got, err := Unmarshal[float64](AppendMarshal(nil, xs))
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
		got, err := Unmarshal[int64](AppendMarshal(nil, xs))
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
	data := []byte("hello, world")
	got, err := readBareFrame(bareFrame(testEnvelope(kindData, 3, 1, 2, 12, 99, 1<<40, data)))
	if err != nil {
		t.Fatal(err)
	}
	if got.kind != kindData || got.src != 3 || got.wsrc != 1 ||
		got.wdst != 2 || got.ctx != 12 || got.tag != 99 || got.seq != 1<<40 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !bytes.Equal(got.data, data) {
		t.Fatalf("payload mismatch: %q != %q", got.data, data)
	}
	dropEnv(got)
}

func TestEnvelopeWireEmptyPayload(t *testing.T) {
	got, err := readBareFrame(bareFrame(testEnvelope(kindAck, 0, 0, 1, 0, 0, 5, nil)))
	if err != nil {
		t.Fatal(err)
	}
	if got.seq != 5 || got.kind != kindAck || len(got.data) != 0 {
		t.Fatalf("empty payload round trip: %+v", got)
	}
	dropEnv(got)
}

// TestReadFrameTruncated: a stream that ends inside a frame's header or
// payload is a stream error, not a frame.
func TestReadFrameTruncated(t *testing.T) {
	if _, err := readBareFrame([]byte{1, 2}); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated header: got %v, want io.ErrUnexpectedEOF", err)
	}
	wire := bareFrame(testEnvelope(kindData, 0, 0, 1, 0, 0, 0, []byte("abc")))
	if _, err := readBareFrame(wire[:len(wire)-1]); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated payload: got %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestEnvelopeWireQuick(t *testing.T) {
	f := func(src, wsrc, wdst uint8, ctx, tag int32, seq int64, data []byte) bool {
		e := testEnvelope(kindData, int(src), int(wsrc%4), int(wdst%4), ctx, tag, seq, data)
		want := *e
		got, err := readBareFrame(bareFrame(e))
		if err != nil {
			return false
		}
		defer dropEnv(got)
		return got.src == want.src && got.wsrc == want.wsrc && got.wdst == want.wdst &&
			got.ctx == want.ctx && got.tag == want.tag && got.seq == want.seq &&
			bytes.Equal(got.data, data)
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
