package mpi

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

func TestTCPPingPong(t *testing.T) {
	err := RunTCP(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := Send(c, []float64{3.25}, 1, 0); err != nil {
				return err
			}
			got, _, err := Recv[float64](c, 1, 0)
			if err != nil {
				return err
			}
			if got[0] != 6.5 {
				return fmt.Errorf("got %v", got)
			}
			return nil
		}
		x, _, err := Recv[float64](c, 0, 0)
		if err != nil {
			return err
		}
		return Send(c, []float64{x[0] * 2}, 0, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPCollectives(t *testing.T) {
	err := RunTCP(4, func(c *Comm) error {
		sum, err := Allreduce(c, []int{c.Rank() + 1}, OpSum)
		if err != nil {
			return err
		}
		if sum[0] != 10 {
			return fmt.Errorf("allreduce over tcp: %d", sum[0])
		}
		all, err := allgather(c, []int{c.Rank()})
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(all, []int{0, 1, 2, 3}) {
			return fmt.Errorf("allgather over tcp: %v", all)
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPLargeRendezvousMessage(t *testing.T) {
	big := make([]float64, 200_000) // ~1.6 MB, forces rendezvous + framing
	for i := range big {
		big[i] = float64(i)
	}
	err := RunTCP(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return Send(c, big, 1, 0)
		}
		got, _, err := Recv[float64](c, 0, 0)
		if err != nil {
			return err
		}
		if len(got) != len(big) || got[123_456] != 123456 {
			return fmt.Errorf("large tcp transfer corrupted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPSelfSend(t *testing.T) {
	err := RunTCP(2, func(c *Comm) error {
		if err := Send(c, []int{c.Rank()}, c.Rank(), 0); err != nil {
			return err
		}
		got, _, err := Recv[int](c, c.Rank(), 0)
		if err != nil {
			return err
		}
		if got[0] != c.Rank() {
			return fmt.Errorf("self send over tcp: %d", got[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPWatchdogRescuesHang(t *testing.T) {
	start := time.Now()
	err := RunTCP(2, func(c *Comm) error {
		_, _, err := Recv[int](c, AnySource, AnyTag)
		return err
	}, WithWatchdog(100*time.Millisecond))
	if err == nil {
		t.Fatal("want watchdog abort")
	}
	if time.Since(start) > 10*time.Second {
		t.Fatalf("watchdog too slow: %v", time.Since(start))
	}
}

func TestTCPManyRanks(t *testing.T) {
	err := RunTCP(6, func(c *Comm) error {
		sum, err := Allreduce(c, []float64{1}, OpSum)
		if err != nil {
			return err
		}
		if sum[0] != 6 {
			return fmt.Errorf("6-rank tcp allreduce: %v", sum[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReadFrameRejects: a frame whose framing is broken is refused with
// errBadFrame before any payload is read — including a declared length
// of 2³¹ or more, which on a 32-bit host wraps negative as an int — and
// so is an envelope naming a rank outside the world.
func TestReadFrameRejects(t *testing.T) {
	frame := func(frameLen, payloadLen uint32, wsrc, wdst int) []byte {
		b := make([]byte, 4+envelopeHeaderLen)
		binary.LittleEndian.PutUint32(b, frameLen)
		putHeader(b[4:], &envelope{wsrc: wsrc, wdst: wdst})
		binary.LittleEndian.PutUint32(b[4+37:], payloadLen) // the header's payload length field
		return b
	}
	cases := []struct {
		name string
		b    []byte
	}{
		{"shorter than header", frame(envelopeHeaderLen-1, 0, 0, 1)},
		{"length mismatch", frame(envelopeHeaderLen+8, 4, 0, 1)},
		{"2^31 payload", frame(envelopeHeaderLen+1<<31, 1<<31, 0, 1)},
		{"over the cap", frame(envelopeHeaderLen+maxPayloadLen+1, maxPayloadLen+1, 0, 1)},
		{"wsrc out of range", frame(envelopeHeaderLen, 0, 2, 1)},
		{"wdst out of range", frame(envelopeHeaderLen, 0, 0, -1)},
	}
	for _, tc := range cases {
		hdr := make([]byte, 4+envelopeHeaderLen)
		e, err := readFrame(bufio.NewReader(bytes.NewReader(tc.b)), hdr, 0, 2)
		if !errors.Is(err, errBadFrame) {
			t.Errorf("%s: got (%v, %v), want errBadFrame", tc.name, e, err)
		}
	}
	hdr := make([]byte, 4+envelopeHeaderLen)
	e, err := readFrame(bufio.NewReader(bytes.NewReader(frame(envelopeHeaderLen, 0, 0, 1))), hdr, 0, 2)
	if err != nil || e.wsrc != 0 || e.wdst != 1 {
		t.Fatalf("well-formed frame: got (%v, %v)", e, err)
	}
	putEnv(e)
}

// TestReadFrameDeclaredHugeShortStream: a header that declares a 1 GiB
// payload, followed by a stream that ends after 100 KiB of it, fails
// with an EOF and allocates for the bytes that arrived, not for the
// gibibyte the header declared.
func TestReadFrameDeclaredHugeShortStream(t *testing.T) {
	b := make([]byte, 4+envelopeHeaderLen, 4+envelopeHeaderLen+100<<10)
	binary.LittleEndian.PutUint32(b, envelopeHeaderLen+maxPayloadLen)
	putHeader(b[4:], &envelope{wsrc: 0, wdst: 1})
	binary.LittleEndian.PutUint32(b[4+37:], maxPayloadLen) // the header's payload length field
	b = b[:cap(b)]
	r := bufio.NewReader(bytes.NewReader(b))
	hdr := make([]byte, 4+envelopeHeaderLen)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e, err := readFrame(r, hdr, 0, 2)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("got (%v, %v), want an EOF", e, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<20 {
		t.Fatalf("read of a truncated 1 GiB frame allocated %d bytes, want < 4 MiB", got)
	}
}

// TestReadFrameLongPayload: a payload longer than trustedPayloadLen,
// read through the growing buffer, arrives whole and in order.
func TestReadFrameLongPayload(t *testing.T) {
	data := make([]byte, 3*trustedPayloadLen+5)
	for i := range data {
		data[i] = byte(i * 7)
	}
	e, err := readBareFrame(bareFrame(testEnvelope(kindData, 0, 0, 1, 0, 0, 0, data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e.data, data) {
		t.Fatal("long payload corrupted")
	}
	dropEnv(e)
}

// loopbackPair returns the two ends of one loopback TCP connection.
func loopbackPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, err = ln.Accept()
	if err != nil {
		client.Close()
		t.Fatal(err)
	}
	return client, server
}

// framePattern is byte i of the payload sender s puts in its frame seq.
func framePattern(s, seq, i int) byte { return byte(s*31 + seq*7 + i) }

// TestFramesWholeUnderConcurrentSenders: several goroutines share one
// connection's writer, and the reader loop's readFrame returns every
// frame whole and in each sender's order — for payloads on both sides of
// the read buffer's size (as payload and as whole frame), the eager
// threshold, and messages far larger than the buffer.
func TestFramesWholeUnderConcurrentSenders(t *testing.T) {
	for _, pre := range []int{0, linkPrefixLen} {
		t.Run(fmt.Sprintf("prefix=%d", pre), func(t *testing.T) {
			defer leakcheck.Snapshot(t, poolGauge()).Check()
			client, server := loopbackPair(t)
			defer client.Close()
			defer server.Close()
			const senders, rounds = 4, 2
			over := pre + 4 + envelopeHeaderLen // frame bytes besides the payload
			sizes := []int{
				0, 1,
				tcpBufSize - 1, tcpBufSize, tcpBufSize + 1,
				tcpBufSize - over - 1, tcpBufSize - over, tcpBufSize - over + 1,
				DefaultEagerThreshold, 64<<10 + 1, 1 << 20,
			}
			tc := &tcpConn{w: client, c: client, pre: pre}
			errc := make(chan error, senders)
			for s := 0; s < senders; s++ {
				go func(s int) {
					for seq := 0; seq < rounds*len(sizes); seq++ {
						e := getEnv()
						e.kind = kindData
						e.src, e.wsrc, e.wdst = s, s, 0
						e.tag = int32(seq)
						e.lseq, e.crc = uint64(seq)<<8|uint64(s), uint32(s)
						e.data = getBuf(sizes[seq%len(sizes)])
						for i := range e.data {
							e.data[i] = framePattern(s, seq, i)
						}
						if err := tc.send(e); err != nil {
							errc <- err
							return
						}
					}
					errc <- nil
				}(s)
			}
			br := bufio.NewReaderSize(server, tcpBufSize)
			hdr := make([]byte, pre+4+envelopeHeaderLen)
			next := make([]int, senders)
			for got := 0; got < senders*rounds*len(sizes); got++ {
				e, err := readFrame(br, hdr, pre, senders)
				if err != nil {
					t.Fatalf("frame %d: %v", got, err)
				}
				s, seq := e.wsrc, int(e.tag)
				if seq != next[s] {
					t.Fatalf("sender %d: frame %d arrived, want %d", s, seq, next[s])
				}
				next[s]++
				if n := sizes[seq%len(sizes)]; len(e.data) != n {
					t.Fatalf("sender %d frame %d: %d payload bytes, want %d", s, seq, len(e.data), n)
				}
				for i, b := range e.data {
					if b != framePattern(s, seq, i) {
						t.Fatalf("sender %d frame %d: payload byte %d is %d, want %d", s, seq, i, b, framePattern(s, seq, i))
					}
				}
				if pre > 0 && (e.lseq != uint64(seq)<<8|uint64(s) || e.crc != uint32(s)) {
					t.Fatalf("sender %d frame %d: link prefix (%d, %d)", s, seq, e.lseq, e.crc)
				}
				putBuf(e.data)
				putEnv(e)
			}
			for s := 0; s < senders; s++ {
				if err := <-errc; err != nil {
					t.Fatalf("send: %v", err)
				}
			}
		})
	}
}

// tornWriter takes the first room bytes written to it, then fails.
type tornWriter struct {
	bytes.Buffer
	room int
}

var errTorn = errors.New("torn")

func (w *tornWriter) Write(p []byte) (int, error) {
	if len(p) > w.room {
		n, _ := w.Buffer.Write(p[:w.room])
		w.room = 0
		return n, errTorn
	}
	w.room -= len(p)
	return w.Buffer.Write(p)
}

// TestFrameShortWritePoisonsConn: after a write fails, the frame may be
// torn, so every later send on the connection returns the first error and
// puts no bytes on the stream — even once the stream would take them.
func TestFrameShortWritePoisonsConn(t *testing.T) {
	defer leakcheck.Snapshot(t, poolGauge()).Check()
	frame := func() *envelope {
		e := getEnv()
		e.kind = kindData
		e.wdst = 1
		e.data = copyToPooled([]byte("payload"))
		return e
	}
	t.Run("deadline", func(t *testing.T) {
		client, server := loopbackPair(t)
		defer client.Close()
		defer server.Close()
		tc := &tcpConn{w: client, c: client}
		_ = client.SetWriteDeadline(time.Now().Add(-time.Second))
		first := tc.send(frame())
		if first == nil {
			t.Fatal("send past the write deadline succeeded")
		}
		_ = client.SetWriteDeadline(time.Time{})
		if err := tc.send(frame()); err != first {
			t.Fatalf("second send: %v, want the first error %v", err, first)
		}
		client.Close()
		if b, err := io.ReadAll(server); err != nil || len(b) != 0 {
			t.Fatalf("stream carries %d bytes (%v), want none", len(b), err)
		}
	})
	t.Run("torn", func(t *testing.T) {
		torn := 4 + envelopeHeaderLen + 3 // the write fails three bytes into the payload
		w := &tornWriter{room: torn}
		tc := &tcpConn{w: w}
		if err := tc.send(frame()); err != errTorn {
			t.Fatalf("first send: %v, want %v", err, errTorn)
		}
		if tc.iov[0] != nil || tc.iov[1] != nil {
			t.Fatal("the connection still references the torn frame, whose payload went back to the pool")
		}
		w.room = 1 << 20
		if err := tc.send(frame()); err != errTorn {
			t.Fatalf("second send: %v, want the first error %v", err, errTorn)
		}
		if w.Len() != torn {
			t.Fatalf("stream carries %d bytes, want the torn frame's %d", w.Len(), torn)
		}
	})
}
