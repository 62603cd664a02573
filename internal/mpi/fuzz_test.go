package mpi

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// bareFrame returns e's socket frame without a link prefix, as the
// writer frames it. It consumes e, as a send does.
func bareFrame(e *envelope) []byte {
	var b bytes.Buffer
	_ = (&tcpConn{w: &b}).send(e)
	return b.Bytes()
}

// readBareFrame parses b as the socket reader of a four-rank world
// without reliable links does.
func readBareFrame(b []byte) (*envelope, error) {
	hdr := make([]byte, 4+envelopeHeaderLen)
	return readFrame(bufio.NewReader(bytes.NewReader(b)), hdr, 0, 4)
}

// testEnvelope is a pooled envelope with the given fields, as a sender
// would hand it to the transport.
func testEnvelope(kind int8, src, wsrc, wdst int, ctx, tag int32, seq int64, data []byte) *envelope {
	e := getEnv()
	e.kind, e.src, e.wsrc, e.wdst, e.ctx, e.tag, e.seq = kind, src, wsrc, wdst, ctx, tag, seq
	e.data = copyToPooled(data)
	return e
}

// FuzzReadFrame hardens the socket reader against malformed streams: it
// must never panic; a frame whose length, declared payload or ranks are
// broken must fail with errBadFrame; a stream that ends inside a frame
// must fail with an EOF; and every frame it accepts must re-encode to
// the bytes it was read from.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(bareFrame(testEnvelope(kindData, 1, 1, 0, 2, 3, 4, []byte("hi"))))
	f.Add(bareFrame(testEnvelope(kindAck, 0, 0, 0, 0, 0, 9, nil)))
	f.Fuzz(func(t *testing.T, b []byte) {
		const np, h = 4, envelopeHeaderLen
		var frameLen uint64
		broken := false
		if len(b) >= 4+h {
			frameLen = uint64(binary.LittleEndian.Uint32(b))
			payloadLen := uint64(binary.LittleEndian.Uint32(b[4+37:]))
			wsrc := int32(binary.LittleEndian.Uint32(b[4+5:]))
			wdst := int32(binary.LittleEndian.Uint32(b[4+9:]))
			broken = frameLen < h || frameLen-h > maxPayloadLen || payloadLen != frameLen-h ||
				wsrc < 0 || wsrc >= np || wdst < 0 || wdst >= np
		}
		e, err := readBareFrame(b)
		switch {
		case broken:
			if !errors.Is(err, errBadFrame) {
				t.Fatalf("broken framing read as (%v, %v), want errBadFrame", e, err)
			}
		case len(b) < 4+h || uint64(len(b)) < 4+frameLen:
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("truncated stream read as (%v, %v), want an EOF", e, err)
			}
		case err != nil:
			t.Fatalf("well-formed frame rejected: %v", err)
		default:
			if back := bareFrame(e); !bytes.Equal(back, b[:4+frameLen]) {
				t.Fatalf("accepted frame does not round-trip: %x → %x", b[:4+frameLen], back)
			}
		}
	})
}

// FuzzUnmarshalFloat64 hardens the typed decoder: arbitrary byte strings
// either error or decode to a slice that re-encodes identically.
func FuzzUnmarshalFloat64(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendMarshal(nil, []float64{1.5, -2.25}))
	f.Add([]byte{1, 2, 3}) // not a multiple of 8
	f.Fuzz(func(t *testing.T, b []byte) {
		xs, err := Unmarshal[float64](b)
		if err != nil {
			if len(b)%8 == 0 {
				t.Fatalf("aligned input rejected: %v", err)
			}
			return
		}
		if !bytes.Equal(AppendMarshal(nil, xs), b) {
			t.Fatal("decode/encode not idempotent")
		}
	})
}
