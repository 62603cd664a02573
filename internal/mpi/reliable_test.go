package mpi

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

// poolGauge is the leak gauge every reliability/fault test checks: pool
// bytes checked out must return to their pre-run level, or some path
// dropped an envelope or retained frame without recycling it.
func poolGauge() leakcheck.Gauge {
	return leakcheck.Gauge{
		Name: "pool_bytes_in_flight",
		Read: func() int64 { return PoolStats().BytesInFlight },
	}
}

// oneShotFrame builds an injector applying act to the first data frame
// crossing src→dst and delivering everything else.
func oneShotFrame(act FrameAction, src, dst int) *testInjector {
	var fired atomic.Bool
	return &testInjector{atFrame: func(s, d int) (FrameAction, time.Duration) {
		if s == src && d == dst && fired.CompareAndSwap(false, true) {
			return act, 0
		}
		return FrameDeliver, 0
	}}
}

// lossyInjector draws a seeded verdict per frame: the randomized plan of
// the chaos harness in miniature.
type lossyInjector struct {
	mu                          sync.Mutex
	rng                         *rand.Rand
	drop, dup, corrupt, reorder float64 // cumulative probability thresholds
}

func newLossyInjector(seed int64, drop, dup, corrupt, reorder float64) *lossyInjector {
	return &lossyInjector{
		rng:     rand.New(rand.NewSource(seed)),
		drop:    drop,
		dup:     drop + dup,
		corrupt: drop + dup + corrupt,
		reorder: drop + dup + corrupt + reorder,
	}
}

func (l *lossyInjector) AtCall(rank, call int) bool { return false }

func (l *lossyInjector) AtFrame(src, dst int) (FrameAction, time.Duration) {
	l.mu.Lock()
	x := l.rng.Float64()
	l.mu.Unlock()
	switch {
	case x < l.drop:
		return FrameDrop, 0
	case x < l.dup:
		return FrameDup, 0
	case x < l.corrupt:
		return FrameCorrupt, 0
	case x < l.reorder:
		return FrameReorder, 0
	}
	return FrameDeliver, 0
}

// runFunc launches a world: Run or RunTCP.
type runFunc = func(int, func(*Comm) error, ...Option) error

// onBothEndpoints runs body once per endpoint of the link stack: the
// in-memory link of Run and the sockets of RunTCP. Frame faults and
// reliable links are layers over either, so every link test holds on
// both.
func onBothEndpoints(t *testing.T, body func(t *testing.T, run runFunc)) {
	t.Run("Run", func(t *testing.T) { body(t, Run) })
	t.Run("RunTCP", func(t *testing.T) { body(t, RunTCP) })
}

// sendRecvOnce runs a two-rank world: rank 0 sends vals to rank 1,
// which reports what it received.
func sendRecvOnce(t *testing.T, run runFunc, vals []float64, opts ...Option) []float64 {
	t.Helper()
	got := make([]float64, len(vals))
	err := run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return Send(c, vals, 1, 7)
		}
		v, _, err := Recv[float64](c, 0, 7)
		if err != nil {
			return err
		}
		copy(got, v)
		return nil
	}, opts...)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return got
}

// TestReliableDropRecovers: a dropped frame on a reliable link costs one
// retransmit timeout, not the message.
func TestReliableDropRecovers(t *testing.T) {
	onBothEndpoints(t, func(t *testing.T, run runFunc) {
		defer leakcheck.Snapshot(t, poolGauge()).Check()
		before := ReliabilityStats()
		vals := []float64{3.25, -1.5, 42}
		got := sendRecvOnce(t, run, vals, WithReliableLinks(), WithInjector(oneShotFrame(FrameDrop, 0, 1)))
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("received %v, want %v", got, vals)
			}
		}
		d := ReliabilityStats().Sub(before)
		if d.FramesDropped < 1 {
			t.Errorf("FramesDropped = %d, want >= 1", d.FramesDropped)
		}
		if d.Retransmits < 1 {
			t.Errorf("Retransmits = %d, want >= 1", d.Retransmits)
		}
		if d.AcksSent < 1 {
			t.Errorf("AcksSent = %d, want >= 1", d.AcksSent)
		}
	})
}

// TestReliableCorruptRecovers: a corrupted frame fails the CRC gate at
// the receiver, is discarded unacked, and the sender's clean retained
// copy arrives after an RTO.
func TestReliableCorruptRecovers(t *testing.T) {
	onBothEndpoints(t, func(t *testing.T, run runFunc) {
		defer leakcheck.Snapshot(t, poolGauge()).Check()
		before := ReliabilityStats()
		vals := []float64{1, 2, 3, 4}
		got := sendRecvOnce(t, run, vals, WithReliableLinks(), WithInjector(oneShotFrame(FrameCorrupt, 0, 1)))
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("received %v, want %v", got, vals)
			}
		}
		d := ReliabilityStats().Sub(before)
		if d.FramesCorrupt < 1 {
			t.Errorf("FramesCorrupt = %d, want >= 1", d.FramesCorrupt)
		}
		if d.Retransmits < 1 {
			t.Errorf("Retransmits = %d, want >= 1", d.Retransmits)
		}
	})
}

// TestReliableDupSuppressed: a duplicated frame is absorbed by the
// receiver's sequence cursor; FIFO order and message count hold.
func TestReliableDupSuppressed(t *testing.T) {
	onBothEndpoints(t, func(t *testing.T, run runFunc) {
		defer leakcheck.Snapshot(t, poolGauge()).Check()
		before := ReliabilityStats()
		var got []float64
		err := run(2, func(c *Comm) error {
			if c.Rank() == 0 {
				if err := Send(c, []float64{10}, 1, 7); err != nil {
					return err
				}
				return Send(c, []float64{20}, 1, 7)
			}
			for i := 0; i < 2; i++ {
				v, _, err := Recv[float64](c, 0, 7)
				if err != nil {
					return err
				}
				got = append(got, v...)
			}
			return nil
		}, WithReliableLinks(), WithInjector(oneShotFrame(FrameDup, 0, 1)))
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if len(got) != 2 || got[0] != 10 || got[1] != 20 {
			t.Fatalf("received %v, want [10 20]", got)
		}
		if d := ReliabilityStats().Sub(before); d.DupsSuppressed < 1 {
			t.Errorf("DupsSuppressed = %d, want >= 1", d.DupsSuppressed)
		}
	})
}

// TestReliableReorderRecovers: an overtaken frame still arrives, and the
// ARQ's in-order delivery restores the non-overtaking guarantee.
func TestReliableReorderRecovers(t *testing.T) {
	onBothEndpoints(t, func(t *testing.T, run runFunc) {
		defer leakcheck.Snapshot(t, poolGauge()).Check()
		var got []float64
		err := run(2, func(c *Comm) error {
			if c.Rank() == 0 {
				if err := Send(c, []float64{10}, 1, 7); err != nil {
					return err
				}
				return Send(c, []float64{20}, 1, 7)
			}
			for i := 0; i < 2; i++ {
				v, _, err := Recv[float64](c, 0, 7)
				if err != nil {
					return err
				}
				got = append(got, v...)
			}
			return nil
		}, WithReliableLinks(), WithInjector(oneShotFrame(FrameReorder, 0, 1)))
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if len(got) != 2 || got[0] != 10 || got[1] != 20 {
			t.Fatalf("received %v, want [10 20] despite wire reordering", got)
		}
	})
}

// TestReliableLossyAllreduce is the tentpole invariant in miniature:
// under a seeded 5% drop + dup + corrupt + reorder plan, collectives on
// a reliable mesh produce bit-identical results, with the damage visible
// only in the link counters.
func TestReliableLossyAllreduce(t *testing.T) {
	onBothEndpoints(t, func(t *testing.T, run runFunc) {
		defer leakcheck.Snapshot(t, poolGauge()).Check()
		before := ReliabilityStats()
		const np, iters = 4, 15
		inj := newLossyInjector(42, 0.05, 0.02, 0.02, 0.01)
		var mu sync.Mutex
		results := make(map[int][]int64)
		err := run(np, func(c *Comm) error {
			var mine []int64
			for it := 0; it < iters; it++ {
				contrib := []int64{int64(c.Rank()*100 + it), int64(it * it)}
				res, err := Allreduce(c, contrib, OpSum)
				if err != nil {
					return err
				}
				mine = append(mine, res...)
			}
			mu.Lock()
			results[c.Rank()] = mine
			mu.Unlock()
			return nil
		}, WithReliableLinks(), WithInjector(inj))
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		for it := 0; it < iters; it++ {
			wantA := int64(0)
			for r := 0; r < np; r++ {
				wantA += int64(r*100 + it)
			}
			wantB := int64(np * it * it)
			for r := 0; r < np; r++ {
				if results[r][2*it] != wantA || results[r][2*it+1] != wantB {
					t.Fatalf("iter %d rank %d: got (%d,%d), want (%d,%d)",
						it, r, results[r][2*it], results[r][2*it+1], wantA, wantB)
				}
			}
		}
		d := ReliabilityStats().Sub(before)
		if d.FramesDropped == 0 || d.Retransmits == 0 {
			t.Errorf("expected injected losses and retransmits, got deltas %+v", d)
		}
		t.Logf("lossy allreduce survived: %+v", d)
	})
}

// TestReliableDropRateSweep is the EXPERIMENTS.md drop-rate study:
// p50/p99 allreduce latency and retransmit counts as the per-frame drop
// probability rises 0 → 5%. The measured table lands in the test log
// (run with -v); the assertions pin the study's shape — results stay
// bit-exact at every loss rate, and the damage shows only as latency
// and retransmissions.
func TestReliableDropRateSweep(t *testing.T) {
	onBothEndpoints(t, func(t *testing.T, run runFunc) {
		defer leakcheck.Snapshot(t, poolGauge()).Check()
		const np, iters, elems = 4, 60, 256
		probs := []float64{0, 0.01, 0.02, 0.05}
		retx := make([]int64, len(probs))
		for i, prob := range probs {
			before := ReliabilityStats()
			var mu sync.Mutex
			var lat []time.Duration
			err := run(np, func(c *Comm) error {
				buf := make([]float64, elems)
				for it := 0; it < iters; it++ {
					for j := range buf {
						buf[j] = float64(c.Rank() + j)
					}
					start := time.Now()
					res, err := Allreduce(c, buf, OpSum)
					d := time.Since(start)
					if err != nil {
						return err
					}
					for j, v := range res {
						if want := float64(np*j + np*(np-1)/2); v != want {
							t.Errorf("prob %.2f iter %d elem %d: %g, want %g", prob, it, j, v, want)
						}
					}
					if c.Rank() == 0 {
						mu.Lock()
						lat = append(lat, d)
						mu.Unlock()
					}
				}
				return nil
			}, WithReliableLinks(), WithInjector(newLossyInjector(int64(100+i), prob, 0, 0, 0)))
			if err != nil {
				t.Fatalf("prob %.2f: run: %v", prob, err)
			}
			d := ReliabilityStats().Sub(before)
			retx[i] = d.Retransmits
			sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
			t.Logf("drop=%4.1f%%  p50=%9v  p99=%9v  dropped=%3d  retransmits=%3d  acks=%d",
				prob*100, lat[len(lat)/2], lat[len(lat)*99/100], d.FramesDropped, d.Retransmits, d.AcksSent)
			if prob > 0 && d.FramesDropped == 0 {
				t.Errorf("prob %.2f: injector dropped nothing; the sweep point is vacuous", prob)
			}
		}
		if retx[len(retx)-1] == 0 {
			t.Error("5%% drop produced no retransmissions — the reliability layer was not exercised")
		}
	})
}

// TestRawCorruptSilentlyWrong is the teaching contrast: without the CRC
// gate a flipped payload bit is delivered as perfectly plausible wrong
// data — the run "succeeds".
func TestRawCorruptSilentlyWrong(t *testing.T) {
	onBothEndpoints(t, func(t *testing.T, run runFunc) {
		defer leakcheck.Snapshot(t, poolGauge()).Check()
		vals := []float64{1, 2, 3, 4}
		got := sendRecvOnce(t, run, vals,
			WithInjector(oneShotFrame(FrameCorrupt, 0, 1)), WithHeartbeat(10*time.Minute))
		same := true
		for i := range vals {
			if got[i] != vals[i] {
				same = false
			}
		}
		if same {
			t.Fatalf("corrupted frame arrived intact: %v", got)
		}
	})
}

// TestRawCorruptSparesLentSlice: on Run a synchronous send lends its
// slice to the link, and the fault layer corrupts an owned copy: the
// receiver gets the damage, the sender's slice stays as it was.
func TestRawCorruptSparesLentSlice(t *testing.T) {
	defer leakcheck.Snapshot(t, poolGauge()).Check()
	vals := []float64{1, 2, 3, 4}
	got := sendRecvOnce(t, Run, vals, WithSynchronousSends(), WithInjector(oneShotFrame(FrameCorrupt, 0, 1)))
	if reflect.DeepEqual(got, []float64{1, 2, 3, 4}) {
		t.Fatalf("corrupted frame arrived intact: %v", got)
	}
	if !reflect.DeepEqual(vals, []float64{1, 2, 3, 4}) {
		t.Fatalf("the fault layer damaged the sender's lent slice: %v", vals)
	}
}

// TestRawReorderOvertakes: without sequencing, a held-back frame lets
// its successor overtake it and FIFO order is visibly broken.
func TestRawReorderOvertakes(t *testing.T) {
	onBothEndpoints(t, func(t *testing.T, run runFunc) {
		defer leakcheck.Snapshot(t, poolGauge()).Check()
		var got []float64
		err := run(2, func(c *Comm) error {
			if c.Rank() == 0 {
				if err := Send(c, []float64{10}, 1, 7); err != nil {
					return err
				}
				return Send(c, []float64{20}, 1, 7)
			}
			for i := 0; i < 2; i++ {
				v, _, err := Recv[float64](c, 0, 7)
				if err != nil {
					return err
				}
				got = append(got, v...)
			}
			return nil
		}, WithInjector(oneShotFrame(FrameReorder, 0, 1)), WithHeartbeat(10*time.Minute))
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if len(got) != 2 || got[0] != 20 || got[1] != 10 {
			t.Fatalf("received %v, want the overtaken order [20 10]", got)
		}
	})
}

// TestReliableLinksClean: a reliable world with nothing injected runs
// as a clean one does.
func TestReliableLinksClean(t *testing.T) {
	onBothEndpoints(t, func(t *testing.T, run runFunc) {
		defer leakcheck.Snapshot(t, poolGauge()).Check()
		err := run(3, func(c *Comm) error {
			res, err := Allreduce(c, []int64{1}, OpSum)
			if err != nil {
				return err
			}
			if res[0] != 3 {
				t.Errorf("allreduce = %d, want 3", res[0])
			}
			return nil
		}, WithReliableLinks())
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	})
}

// wireTap is an endpoint that frames every envelope it is handed the way
// a reliable world's socket does, into buf.
type wireTap struct{ buf bytes.Buffer }

func (w *wireTap) deliver(e *envelope) error {
	tc := &tcpConn{w: &w.buf, pre: linkPrefixLen}
	return tc.send(e)
}
func (w *wireTap) close() error { return nil }

// readLinkFrame parses b as the socket reader of a four-rank reliable
// world does.
func readLinkFrame(b []byte) (*envelope, error) {
	hdr := make([]byte, linkPrefixLen+4+envelopeHeaderLen)
	return readFrame(bufio.NewReader(bytes.NewReader(b)), hdr, linkPrefixLen, 4)
}

// stampedFrame returns the wire bytes of a data envelope carrying
// payload, stamped with link sequence number seq as the send half stamps
// it.
func stampedFrame(seq uint64, payload []byte) []byte {
	e := getEnv()
	e.kind = kindData
	e.src, e.wsrc, e.wdst = 2, 2, 3
	e.tag = 11
	e.data = copyToPooled(payload)
	e.lseq = seq
	e.crc = linkCRC(e)
	var tap wireTap
	_ = tap.deliver(e)
	return tap.buf.Bytes()
}

// passesGate reports whether frame b survives the socket reader and the
// receive half's CRC gate.
func passesGate(b []byte) bool {
	e, err := readLinkFrame(b)
	if err != nil {
		return false
	}
	ok := checkLinkFrame(e)
	dropEnv(e)
	return ok
}

// TestCheckLinkFrame drives the receive half's CRC gate through the
// socket framing: a clean frame passes with its sequence number and
// payload, and every single-bit flip anywhere in the frame is rejected —
// the property FuzzReliableFrame searches for violations of.
func TestCheckLinkFrame(t *testing.T) {
	payload := []byte("reliable delivery over lossy links")
	blob := stampedFrame(7, payload)
	e, err := readLinkFrame(blob)
	if err != nil || !checkLinkFrame(e) || e.lseq != 7 || !bytes.Equal(e.data, payload) {
		t.Fatalf("clean frame rejected: err=%v", err)
	}
	dropEnv(e)
	for bit := 0; bit < len(blob)*8; bit++ {
		blob[bit/8] ^= 1 << (bit % 8)
		if passesGate(blob) {
			t.Fatalf("single-bit flip at bit %d passed validation", bit)
		}
		blob[bit/8] ^= 1 << (bit % 8)
	}
}

// FuzzReliableFrame asserts the CRC gate cannot be fooled: any frame the
// fuzzer assembles must validate when intact and must be rejected after
// any single-bit corruption.
func FuzzReliableFrame(f *testing.F) {
	f.Add(uint64(1), []byte("hello world"), uint16(3))
	f.Add(uint64(0), []byte{}, uint16(0))
	f.Add(uint64(1<<40), []byte{0xff, 0x00, 0xff}, uint16(77))
	f.Add(uint64(12345), make([]byte, 512), uint16(4097))
	f.Fuzz(func(t *testing.T, seq uint64, payload []byte, flip uint16) {
		if len(payload) > 1<<16 {
			payload = payload[:1<<16]
		}
		blob := stampedFrame(seq, payload)
		e, err := readLinkFrame(blob)
		if err != nil || !checkLinkFrame(e) || e.lseq != seq || len(e.data) != len(payload) {
			t.Fatalf("clean frame rejected: err=%v", err)
		}
		dropEnv(e)
		bit := int(flip) % (len(blob) * 8)
		blob[bit/8] ^= 1 << (bit % 8)
		if passesGate(blob) {
			t.Fatalf("corrupt frame (bit %d flipped) passed the CRC gate", bit)
		}
	})
}

// TestLinkAckWire: the link ack the receive half writes crosses the
// socket framing unsequenced and parses back as the same cumulative ack,
// which raises the acked link's cursor; a stale ack never lowers it.
func TestLinkAckWire(t *testing.T) {
	var tap wireTap
	a := newARQ(newHostTap(4, 0), 4, nil)
	a.wire = &tap
	a.stacked.Store(true)
	acked := &envelope{kind: kindData, wsrc: 1, wdst: 3} // a frame of link 1→3
	for _, seq := range []uint64{0xdeadbeef, 5} {
		tap.buf.Reset()
		a.ack(acked, seq)
		e, err := readLinkFrame(tap.buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if e.kind != kindLinkAck || e.wsrc != 3 || e.wdst != 1 || uint64(e.seq) != seq || e.lseq != 0 {
			t.Fatalf("ack parsed as kind %d %d->%d seq %#x lseq %d, want a link ack 3->1 through %#x", e.kind, e.wsrc, e.wdst, e.seq, e.lseq, seq)
		}
		a.arrive(e)
		if got := a.links[1*4+3].acked.Load(); got != 0xdeadbeef {
			t.Fatalf("after the ack through %#x, link 1->3 cursor = %#x, want 0xdeadbeef", seq, got)
		}
	}
}

// TestReliableCrossPostsDoNotDeadlock: on Run a delivery is a
// synchronous post, and a post that matches a posted receive sends the
// rendezvous ack back on the reverse link. Two ranks swapping
// synchronous sends with their receives posted first cross those paths
// on every iteration, so a link lock held across a delivery would
// deadlock them.
func TestReliableCrossPostsDoNotDeadlock(t *testing.T) {
	defer leakcheck.Snapshot(t, poolGauge()).Check()
	err := Run(2, func(c *Comm) error {
		peer := 1 - c.Rank()
		for i := 0; i < 2000; i++ {
			got, _, err := Sendrecv(c, []int64{int64(i)}, peer, 1, peer, 1)
			if err != nil {
				return err
			}
			if got[0] != int64(i) {
				return fmt.Errorf("iteration %d: got %d", i, got[0])
			}
		}
		return nil
	}, WithReliableLinks(), WithSynchronousSends(), WithWatchdog(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
}
