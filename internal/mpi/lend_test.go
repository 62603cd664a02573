package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/leakcheck"
)

// The lent path: on a link that moves envelope objects (Run, with or
// without WithLinkLatency) a send that waits for its ack puts a view of
// the caller's slice in its envelope, and the match copies it once. These
// tests hold the two promises that makes: nobody reads the view after the
// send has returned, and no view ever reaches the buffer pool.

const lentLen = 1 << 17 // float64 elements: 1 MiB, far above the eager threshold

// lentPattern is rank seed's recognisable payload.
func lentPattern(seed int) []float64 {
	xs := make([]float64, lentLen)
	for i := range xs {
		xs[i] = float64(seed*lentLen + i)
	}
	return xs
}

func checkLentPattern(got []float64, seed int) error {
	if len(got) != lentLen {
		return fmt.Errorf("got %d elements, want %d", len(got), lentLen)
	}
	for i, v := range got {
		if want := float64(seed*lentLen + i); v != want {
			return fmt.Errorf("element %d = %v, want %v (rank %d's payload)", i, v, want, seed)
		}
	}
	return nil
}

// scribble overwrites a send buffer the moment its send has returned, as
// MPI_Send's buffer-reuse rule allows. A receiver still reading a lent
// view then sees a wrong value, and under -race the race is reported.
func scribble(xs []float64) {
	for i := range xs {
		xs[i] = -1
	}
}

// awaitMailbox yields until cond holds under mb's lock: a test's way to
// order one rank's call after another rank's mailbox state without a
// sleep.
func awaitMailbox(mb *mailbox, cond func(*mailbox) bool) {
	for {
		mb.mu.Lock()
		ok := cond(mb)
		mb.mu.Unlock()
		if ok {
			return
		}
		runtime.Gosched()
	}
}

func hasPosted(mb *mailbox) bool   { return len(mb.pending) > 0 }
func parkedInAck(mb *mailbox) bool { return mb.waiting.kind == waitAck }

// sharesArray reports whether got shares dst's backing array.
func sharesArray(got, dst []float64) bool {
	return len(got) > 0 && cap(dst) > 0 && unsafe.SliceData(got) == unsafe.SliceData(dst)
}

// TestLentSendAliasing: every receive path reads a lent message before
// the ack that lets its sender return, on the channel link and behind the
// latency decorator. A RecvInto whose dst holds the message gets it there
// directly, posted before the arrival or after it.
func TestLentSendAliasing(t *testing.T) {
	rows := []struct {
		name string
		np   int
		body func(c *Comm) error
	}{
		{"Send/RecvInto-posted-first", 2, func(c *Comm) error {
			if c.Rank() == 0 {
				x := lentPattern(0)
				awaitMailbox(c.world.mailboxes[1], hasPosted)
				err := Send(c, x, 1, 0)
				scribble(x)
				return err
			}
			dst := make([]float64, 0, lentLen)
			got, _, err := RecvInto(c, dst, 0, 0)
			if err != nil {
				return err
			}
			if !sharesArray(got, dst) {
				return errors.New("RecvInto posted first: the lent message did not land in dst")
			}
			return checkLentPattern(got, 0)
		}},
		{"Send/RecvInto-after-arrival", 2, func(c *Comm) error {
			if c.Rank() == 0 {
				x := lentPattern(0)
				err := Send(c, x, 1, 0)
				scribble(x)
				return err
			}
			// Probe and GetCount see the logical size of a lent message.
			st, err := c.Probe(0, 0)
			if err != nil {
				return err
			}
			if n, err := c.GetCount(st, 8); err != nil || n != lentLen || st.Bytes != 8*lentLen {
				return fmt.Errorf("Probe: status %+v, GetCount %d (%v), want %d elements", st, n, err, lentLen)
			}
			dst := make([]float64, 0, lentLen)
			got, st, err := RecvInto(c, dst, 0, 0)
			if err != nil {
				return err
			}
			if st.Bytes != 8*lentLen || st.Source != 0 {
				return fmt.Errorf("RecvInto: status %+v, want %d bytes from rank 0", st, 8*lentLen)
			}
			if !sharesArray(got, dst) {
				return errors.New("RecvInto after arrival: the lent message did not land in dst")
			}
			return checkLentPattern(got, 0)
		}},
		{"Ssend/Recv", 2, func(c *Comm) error {
			if c.Rank() == 0 {
				x := lentPattern(0)
				err := Ssend(c, x, 1, 0)
				scribble(x)
				return err
			}
			got, _, err := Recv[float64](c, 0, 0)
			if err != nil {
				return err
			}
			return checkLentPattern(got, 0)
		}},
		{"SendBytes/RecvBytes", 2, func(c *Comm) error {
			x := lentPattern(0)
			b := memBytes(x)
			if c.Rank() == 0 {
				err := Send(c, b, 1, 0)
				scribble(x)
				return err
			}
			got, _, err := c.RecvBytes(0, 0)
			if err != nil {
				return err
			}
			defer Release(got)
			if string(got) != string(b) {
				return errors.New("RecvBytes: payload differs from what was sent")
			}
			return nil
		}},
		{"Isend+Wait/WaitRecvInto", 2, func(c *Comm) error {
			if c.Rank() == 0 {
				x := lentPattern(0)
				r, err := Isend(c, x, 1, 0)
				if err != nil {
					return err
				}
				_, _, err = r.Wait()
				scribble(x)
				return err
			}
			r, err := Irecv[float64](c, 0, 0)
			if err != nil {
				return err
			}
			got, _, err := WaitRecvInto(r, make([]float64, 0, lentLen))
			if err != nil {
				return err
			}
			return checkLentPattern(got, 0)
		}},
		{"SendrecvInto", 2, func(c *Comm) error {
			x := lentPattern(c.Rank())
			peer := 1 - c.Rank()
			got, _, err := SendrecvInto(c, x, peer, 0, peer, 0, make([]float64, 0, lentLen))
			scribble(x)
			if err != nil {
				return err
			}
			return checkLentPattern(got, peer)
		}},
		{"AllreduceRing", 4, func(c *Comm) error {
			x := lentPattern(c.Rank())
			got, err := AllreduceRing(c, x, OpSum)
			scribble(x)
			if err != nil {
				return err
			}
			for i, v := range got {
				want := 0.0
				for r := 0; r < c.Size(); r++ {
					want += float64(r*lentLen + i)
				}
				if v != want {
					return fmt.Errorf("AllreduceRing element %d = %v, want %v", i, v, want)
				}
			}
			return nil
		}},
		{"Bcast", 4, func(c *Comm) error {
			var x []float64
			if c.Rank() == 0 {
				x = lentPattern(0)
			}
			got, err := Bcast(c, x, 0)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				scribble(x)
				return nil
			}
			return checkLentPattern(got, 0)
		}},
	}
	links := []struct {
		name string
		opts []Option
	}{
		{"channel", nil},
		{"channel+latency", []Option{WithLinkLatency(200 * time.Microsecond)}},
	}
	for _, link := range links {
		for _, row := range rows {
			t.Run(link.name+"/"+row.name, func(t *testing.T) {
				defer leakcheck.Snapshot(t, poolGauge()).Check()
				if err := Run(row.np, row.body, link.opts...); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestLentSendProgress: the lent path still acknowledges at match time,
// so MPI's posted-receive progress guarantee holds. Pairwise exchanges,
// Irecv+Send+Wait pairs and a ring of pre-posted receives at 1 MiB all
// complete, with no watchdog, on every transport — the socket ones as the
// unchanged reference.
func TestLentSendProgress(t *testing.T) {
	rows := []struct {
		name string
		body func(c *Comm) error
	}{
		{"pairwise-Sendrecv", func(c *Comm) error {
			peer := c.Rank() ^ 1
			got, _, err := Sendrecv(c, lentPattern(c.Rank()), peer, 0, peer, 0)
			if err != nil {
				return err
			}
			return checkLentPattern(got, peer)
		}},
		{"Irecv+Send+Wait-pairs", func(c *Comm) error {
			peer := c.Rank() ^ 1
			r, err := Irecv[float64](c, peer, 0)
			if err != nil {
				return err
			}
			if err := Send(c, lentPattern(c.Rank()), peer, 0); err != nil {
				return err
			}
			got, _, err := WaitRecvInto[float64](r, nil)
			if err != nil {
				return err
			}
			return checkLentPattern(got, peer)
		}},
		{"ring-of-preposted-receives", func(c *Comm) error {
			p := c.Size()
			left, right := (c.Rank()+p-1)%p, (c.Rank()+1)%p
			r, err := Irecv[float64](c, left, 0)
			if err != nil {
				return err
			}
			if err := Ssend(c, lentPattern(c.Rank()), right, 0); err != nil {
				return err
			}
			got, _, err := WaitRecvInto[float64](r, nil)
			if err != nil {
				return err
			}
			return checkLentPattern(got, left)
		}},
	}
	launches := []struct {
		name string
		run  func(np int, fn func(*Comm) error, opts ...Option) error
		opts []Option
	}{
		{"Run", Run, nil},
		{"RunTCP", RunTCP, nil},
		{"RunTCP+reliable", RunTCP, []Option{WithReliableLinks()}},
	}
	for _, l := range launches {
		for _, row := range rows {
			t.Run(l.name+"/"+row.name, func(t *testing.T) {
				if err := l.run(4, row.body, l.opts...); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestLentSendGate: only a link that moves envelope objects lends, and
// only a send that waits for its match. A lent Send into a RecvInto with
// room takes nothing from the buffer pool; the socket transport and an
// eager send still marshal into it.
func TestLentSendGate(t *testing.T) {
	rows := []struct {
		name  string
		run   func(np int, fn func(*Comm) error, opts ...Option) error
		n     int
		opts  []Option
		lends bool
	}{
		{"channel/rendezvous", Run, lentLen, nil, true},
		{"channel+latency/rendezvous", Run, lentLen, []Option{WithLinkLatency(100 * time.Microsecond)}, true},
		{"channel/synchronous-eager-size", Run, 8, []Option{WithSynchronousSends()}, true},
		{"channel/eager", Run, 8, nil, false},
		{"tcp/rendezvous", RunTCP, lentLen, nil, false},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			before := PoolStats()
			err := row.run(2, func(c *Comm) error {
				if c.Rank() == 0 {
					return Send(c, make([]float64, row.n), 1, 0)
				}
				_, _, err := RecvInto(c, make([]float64, 0, row.n), 0, 0)
				return err
			}, row.opts...)
			if err != nil {
				t.Fatal(err)
			}
			after := PoolStats()
			drawn := after.Hits + after.Misses - before.Hits - before.Misses
			if row.lends && drawn != 0 {
				t.Errorf("lent send drew %d pool buffers, want 0", drawn)
			}
			if !row.lends && drawn == 0 {
				t.Error("copied send drew no pool buffer: it lent")
			}
		})
	}
}

// poolHolds reports whether any free buffer in the pool overlaps xs.
func poolHolds(xs []float64) bool {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(xs)))
	hi := lo + uintptr(cap(xs))*8
	for i := range bufClasses {
		bc := &bufClasses[i]
		bc.mu.Lock()
		for _, b := range bc.free {
			p := uintptr(unsafe.Pointer(unsafe.SliceData(b[:cap(b)])))
			if p < hi && lo < p+uintptr(cap(b)) {
				bc.mu.Unlock()
				return true
			}
		}
		bc.mu.Unlock()
	}
	return false
}

// expectErr turns the error a scenario provokes into success, so the
// failing rank does not abort the world under the ranks still checking.
func expectErr(err, target error) error {
	if !errors.Is(err, target) {
		return fmt.Errorf("got %v, want an error wrapping %v", err, target)
	}
	return nil
}

// spinProbe yields until a message matching (src, tag) has arrived: a
// wait that no op timeout cuts short.
func spinProbe(c *Comm, src, tag int) error {
	for {
		if queued(c, src, tag) {
			return nil
		}
		runtime.Gosched()
	}
}

// TestLentDiscardPaths drives every path that discards an envelope, or
// gives up on one, while it carries a lent view: a dead mailbox, a
// cancelled receive of a matched lent message, an abort, teardown, a
// rendezvous send timing out while its envelope is queued (in a mailbox,
// on the latency pipe, or in the pipe's hand), and a rank killed while a
// lent send to it is parked. After each the pool must balance, leave no
// goroutine behind, and hold no buffer that aliases the sender's slice.
// Where the message outlives its send, a later receive gets the bytes as
// they were at the send, not the slice its sender scribbled over.
func TestLentDiscardPaths(t *testing.T) {
	type scenario struct {
		name    string
		np      int
		opts    []Option
		body    func(c *Comm, x []float64) error // x: the 1 MiB buffer one rank lends
		wantErr error                            // nil: every rank succeeds
	}
	var sent atomic.Bool
	killed := func(rank int) Option { return WithInjector(killAtCall(rank, 1)) }
	timeout := func(d time.Duration, more ...Option) []Option {
		return append([]Option{WithOpTimeout(d), WithDeadlockDetection(false)}, more...)
	}
	// timedOutSend is rank 0 of the timeout scenarios: its lent send to
	// rank 1 gives up, it scribbles, and rank 1 may receive.
	timedOutSend := func(c *Comm, x []float64) error {
		err := Send(c, x, 1, 0)
		scribble(x)
		sent.Store(true)
		return expectErr(err, ErrTimeout)
	}
	// lateReceive is rank 1 of the timeout scenarios.
	lateReceive := func(c *Comm) error {
		for !sent.Load() {
			runtime.Gosched()
		}
		if err := spinProbe(c, 0, 0); err != nil {
			return err
		}
		got, _, err := Recv[float64](c, 0, 0)
		if err != nil {
			return err
		}
		return checkLentPattern(got, 0)
	}
	scenarios := []scenario{
		{"dead-mailbox", 2, []Option{killed(1)}, func(c *Comm, x []float64) error {
			if c.Rank() == 1 {
				return c.Barrier() // call 1: killed on entry
			}
			awaitMailbox(c.world.mailboxes[1], func(mb *mailbox) bool { return c.world.isKilled(mb.rank) })
			return expectErr(Send(c, x, 1, 0), ErrRankFailed)
		}, ErrRankKilled},
		{"kill-while-parked", 2, []Option{killed(1)}, func(c *Comm, x []float64) error {
			if c.Rank() == 1 {
				awaitMailbox(c.world.mailboxes[0], parkedInAck)
				return c.Barrier() // call 1: killed with the lent message queued
			}
			return expectErr(Send(c, x, 1, 0), ErrRankFailed)
		}, ErrRankKilled},
		{"abort-with-envelope-queued", 2, nil, func(c *Comm, x []float64) error {
			if c.Rank() == 1 {
				awaitMailbox(c.world.mailboxes[0], parkedInAck)
				c.world.abort(errors.New("abort with a lent envelope queued"))
				return nil
			}
			err := Send(c, x, 1, 0)
			scribble(x)
			return err
		}, ErrAborted},
		{"teardown-with-unexpected-envelope", 2, nil, func(c *Comm, x []float64) error {
			if c.Rank() == 0 {
				// Never completed: the lent envelope is still queued at
				// rank 1 when the world ends.
				_, err := Isend(c, x, 1, 0)
				return err
			}
			awaitMailbox(c.mb, func(mb *mailbox) bool { return len(mb.unexpected) > 0 })
			return nil
		}, nil},
		{"cancelRecv-of-matched-envelope", 3, timeout(50 * time.Millisecond), func(c *Comm, x []float64) error {
			switch c.Rank() {
			case 0:
				// The receive half matches rank 1's lent message; the send
				// half to rank 2, which never receives, times out, and the
				// matched receive is withdrawn.
				_, _, err := Sendrecv(c, make([]float64, lentLen), 2, 0, 1, 0)
				return expectErr(err, ErrTimeout)
			case 1:
				awaitMailbox(c.world.mailboxes[0], func(mb *mailbox) bool { return hasPosted(mb) && parkedInAck(mb) })
				err := Send(c, x, 0, 0)
				scribble(x)
				return err
			}
			return nil
		}, nil},
		{"send-timeout-while-queued", 2, timeout(20 * time.Millisecond), func(c *Comm, x []float64) error {
			if c.Rank() == 0 {
				return timedOutSend(c, x)
			}
			return lateReceive(c)
		}, nil},
		{"send-timeout-queued-on-latency-pipe", 2, timeout(20*time.Millisecond, WithLinkLatency(100*time.Millisecond)), func(c *Comm, x []float64) error {
			if c.Rank() == 0 {
				// The eager message holds the pipe's head, so the lent one
				// times out still queued behind it.
				if err := Send(c, []float64{1}, 1, 1); err != nil {
					return err
				}
				return timedOutSend(c, x)
			}
			if err := spinProbe(c, 0, 1); err != nil {
				return err
			}
			if _, _, err := Recv[float64](c, 0, 1); err != nil {
				return err
			}
			return lateReceive(c)
		}, nil},
		{"send-timeout-in-latency-pipe-hand", 2, timeout(20*time.Millisecond, WithLinkLatency(100*time.Millisecond)), func(c *Comm, x []float64) error {
			if c.Rank() == 0 {
				return timedOutSend(c, x)
			}
			return lateReceive(c)
		}, nil},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			sent.Store(false)
			x := lentPattern(0)
			func() {
				defer leakcheck.Snapshot(t, poolGauge()).Check()
				err := Run(sc.np, func(c *Comm) error { return sc.body(c, x) }, sc.opts...)
				switch {
				case sc.wantErr == nil && err != nil:
					t.Fatal(err)
				case sc.wantErr != nil && !errors.Is(err, sc.wantErr):
					t.Fatalf("run returned %v, want an error wrapping %v", err, sc.wantErr)
				}
			}()
			if poolHolds(x) {
				t.Error("a buffer in the pool aliases the sender's slice")
			}
		})
	}
}
