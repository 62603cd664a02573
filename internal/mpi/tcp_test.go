package mpi

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
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
		all, err := Allgather(c, []int{c.Rank()})
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
