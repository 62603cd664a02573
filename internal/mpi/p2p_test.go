package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestPingPong(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		const rounds = 50
		for i := 0; i < rounds; i++ {
			if c.Rank() == 0 {
				if err := Send(c, []int{i}, 1, 0); err != nil {
					return err
				}
				got, _, err := Recv[int](c, 1, 0)
				if err != nil {
					return err
				}
				if got[0] != i+1 {
					return fmt.Errorf("round %d: got %d, want %d", i, got[0], i+1)
				}
			} else {
				got, _, err := Recv[int](c, 0, 0)
				if err != nil {
					return err
				}
				if err := Send(c, []int{got[0] + 1}, 0, 0); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRing(t *testing.T) {
	for _, np := range []int{1, 2, 3, 8} {
		np := np
		t.Run(fmt.Sprintf("np=%d", np), func(t *testing.T) {
			err := Run(np, func(c *Comm) error {
				right := (c.Rank() + 1) % c.Size()
				left := (c.Rank() - 1 + c.Size()) % c.Size()
				token, _, err := Sendrecv(c, []int{c.Rank()}, right, 7, left, 7)
				if err != nil {
					return err
				}
				if token[0] != left {
					return fmt.Errorf("rank %d got token %d, want %d", c.Rank(), token[0], left)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAnySourceAnyTag(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		if c.Rank() == 0 {
			seen := make(map[int]bool)
			for i := 0; i < 3; i++ {
				msg, st, err := Recv[int](c, AnySource, AnyTag)
				if err != nil {
					return err
				}
				if msg[0] != st.Source {
					return fmt.Errorf("payload %d does not match status source %d", msg[0], st.Source)
				}
				if st.Tag != 10+st.Source {
					return fmt.Errorf("tag %d, want %d", st.Tag, 10+st.Source)
				}
				seen[st.Source] = true
			}
			if len(seen) != 3 {
				return fmt.Errorf("saw %d distinct sources, want 3", len(seen))
			}
			return nil
		}
		return Send(c, []int{c.Rank()}, 0, 10+c.Rank())
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOrderingGuarantee checks MPI's non-overtaking rule: messages between
// one (source, dest, tag) pair arrive in send order.
func TestOrderingGuarantee(t *testing.T) {
	const n = 200
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := Send(c, []int{i}, 1, 3); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			got, _, err := Recv[int](c, 0, 3)
			if err != nil {
				return err
			}
			if got[0] != i {
				return fmt.Errorf("message %d arrived out of order (got %d)", i, got[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTagSelectivity verifies receives match only their tag even when an
// earlier message with a different tag is queued.
func TestTagSelectivity(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := Send(c, []int{111}, 1, 1); err != nil {
				return err
			}
			return Send(c, []int{222}, 1, 2)
		}
		// Receive tag 2 first although tag 1 arrived first.
		got2, _, err := Recv[int](c, 0, 2)
		if err != nil {
			return err
		}
		got1, _, err := Recv[int](c, 0, 1)
		if err != nil {
			return err
		}
		if got2[0] != 222 || got1[0] != 111 {
			return fmt.Errorf("tag selectivity broken: got %d/%d", got1[0], got2[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIsendIrecvWait(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			req, err := Isend(c, []float64{1.5, 2.5}, 1, 0)
			if err != nil {
				return err
			}
			_, _, err = req.Wait()
			return err
		}
		req, err := Irecv[float64](c, 0, 0)
		if err != nil {
			return err
		}
		xs, st, err := WaitRecvInto[float64](req, nil)
		if err != nil {
			return err
		}
		if st.Source != 0 || len(xs) != 2 || xs[0] != 1.5 || xs[1] != 2.5 {
			return fmt.Errorf("unexpected receive: %v %+v", xs, st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIrecvOverlap(t *testing.T) {
	// Post two Irecvs, then satisfy them out of order by tag; posted
	// order must win for same-pattern receives, tags route otherwise.
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 1 {
			r1, err := Irecv[int](c, 0, AnyTag)
			if err != nil {
				return err
			}
			r2, err := Irecv[int](c, 0, AnyTag)
			if err != nil {
				return err
			}
			x1, st1, err := WaitRecvInto[int](r1, nil)
			if err != nil {
				return err
			}
			x2, st2, err := WaitRecvInto[int](r2, nil)
			if err != nil {
				return err
			}
			// First posted receive gets the first message sent.
			if st1.Tag != 5 || st2.Tag != 6 || x1[0] != 50 || x2[0] != 60 {
				return fmt.Errorf("posted-order matching broken: %v@%d, %v@%d", x1, st1.Tag, x2, st2.Tag)
			}
			return nil
		}
		if err := Send(c, []int{50}, 1, 5); err != nil {
			return err
		}
		return Send(c, []int{60}, 1, 6)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRequestTest(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			// Give rank 1 time to poll at least once with no message.
			if err := c.Barrier(); err != nil {
				return err
			}
			return Send(c, []int{9}, 1, 0)
		}
		req, err := Irecv[int](c, 0, 0)
		if err != nil {
			return err
		}
		done, _, _, err := req.Test()
		if err != nil {
			return err
		}
		if done {
			return errors.New("Test reported completion before any send")
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		for {
			done, b, st, err := req.Test()
			if err != nil {
				return err
			}
			if done {
				xs, err := Unmarshal[int](b)
				if err != nil {
					return err
				}
				if xs[0] != 9 || st.Source != 0 {
					return fmt.Errorf("Test payload %v %+v", xs, st)
				}
				return nil
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProbeAndGetCount(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return Send(c, []float64{1, 2, 3, 4, 5}, 1, 12)
		}
		st, err := c.Probe(AnySource, AnyTag)
		if err != nil {
			return err
		}
		n, err := c.GetCount(st, 8)
		if err != nil {
			return err
		}
		if n != 5 {
			return fmt.Errorf("probed count %d, want 5", n)
		}
		xs, _, err := Recv[float64](c, st.Source, st.Tag)
		if err != nil {
			return err
		}
		if len(xs) != 5 {
			return fmt.Errorf("received %d elements", len(xs))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRendezvousBlocksUntilMatched(t *testing.T) {
	var recvStarted atomic.Bool
	big := make([]float64, 100_000) // well past the eager threshold
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := Send(c, big, 1, 0); err != nil {
				return err
			}
			// The send may only complete after rank 1 posted its receive.
			if !recvStarted.Load() {
				return errors.New("rendezvous send completed before receive was posted")
			}
			return nil
		}
		recvStarted.Store(true)
		_, _, err := Recv[float64](c, 0, 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSsendAlwaysSynchronous(t *testing.T) {
	var recvStarted atomic.Bool
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := Ssend(c, []int{1}, 1, 0); err != nil { // tiny, but Ssend
				return err
			}
			if !recvStarted.Load() {
				return errors.New("Ssend completed before matching receive")
			}
			return nil
		}
		recvStarted.Store(true)
		_, _, err := Recv[int](c, 0, 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestErrorsPropagateAndAbort(t *testing.T) {
	sentinel := errors.New("boom")
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return sentinel
		}
		// Rank 1 blocks forever; the abort must release it.
		_, _, err := Recv[int](c, 0, 0)
		if err == nil {
			return errors.New("blocked receive survived abort")
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("want sentinel error, got %v", err)
	}
}

func TestInvalidArguments(t *testing.T) {
	err := Run(1, func(c *Comm) error {
		if err := Send(c, []int{1}, 5, 0); !errors.Is(err, ErrRankOutOfRange) {
			return fmt.Errorf("bad dest: %v", err)
		}
		if err := Send(c, []int{1}, 0, -3); !errors.Is(err, ErrTagOutOfRange) {
			return fmt.Errorf("bad tag: %v", err)
		}
		if _, _, err := Recv[int](c, 9, 0); !errors.Is(err, ErrRankOutOfRange) {
			return fmt.Errorf("bad src: %v", err)
		}
		if err := Send(c, []int{1}, 0, MaxUserTag+1); !errors.Is(err, ErrTagOutOfRange) {
			return fmt.Errorf("oversized tag: %v", err)
		}
		if err := Ssend(c, []int{1}, -1, 0); !errors.Is(err, ErrRankOutOfRange) {
			return fmt.Errorf("Ssend bad dest: %v", err)
		}
		if _, err := Isend(c, []int{1}, 1, 0); !errors.Is(err, ErrRankOutOfRange) {
			return fmt.Errorf("Isend bad dest: %v", err)
		}
		if _, err := Isend(c, []int{1}, 0, AnyTag); !errors.Is(err, ErrTagOutOfRange) {
			return fmt.Errorf("Isend wildcard tag: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSelfSend(t *testing.T) {
	err := Run(1, func(c *Comm) error {
		if err := Send(c, []int{42}, 0, 0); err != nil {
			return err
		}
		got, st, err := Recv[int](c, 0, 0)
		if err != nil {
			return err
		}
		if got[0] != 42 || st.Source != 0 {
			return fmt.Errorf("self send: %v %+v", got, st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadSize(t *testing.T) {
	if err := Run(0, func(*Comm) error { return nil }); err == nil {
		t.Fatal("want error for zero-size world")
	}
	if err := Run(-2, func(*Comm) error { return nil }); err == nil {
		t.Fatal("want error for negative world")
	}
}

func TestManyToOneStress(t *testing.T) {
	const msgsPerRank = 100
	err := Run(8, func(c *Comm) error {
		if c.Rank() == 0 {
			total := 0
			for i := 0; i < (c.Size()-1)*msgsPerRank; i++ {
				xs, _, err := Recv[int](c, AnySource, AnyTag)
				if err != nil {
					return err
				}
				total += xs[0]
			}
			want := 0
			for r := 1; r < c.Size(); r++ {
				for i := 0; i < msgsPerRank; i++ {
					want += r*1000 + i
				}
			}
			if total != want {
				return fmt.Errorf("sum %d, want %d", total, want)
			}
			return nil
		}
		for i := 0; i < msgsPerRank; i++ {
			if err := Send(c, []int{c.Rank()*1000 + i}, 0, i%5); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIsendRendezvousTestPolling(t *testing.T) {
	// A rendezvous-sized Isend completes via Test polling once the
	// receiver matches (exercises the ack fast path).
	big := make([]float64, 50_000)
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			req, err := Isend(c, big, 1, 0)
			if err != nil {
				return err
			}
			if err := c.Barrier(); err != nil { // receiver posts after this
				return err
			}
			for {
				done, _, _, err := req.Test()
				if err != nil {
					return err
				}
				if done {
					return nil
				}
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		_, _, err := Recv[float64](c, 0, 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceOpsProdMinMax(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		prod, err := Allreduce(c, []int{c.Rank() + 2}, opProd) // 2*3*4
		if err != nil {
			return err
		}
		if prod[0] != 24 {
			return fmt.Errorf("prod %d, want 24", prod[0])
		}
		if OpMax(3.5, -1.0) != 3.5 || OpMin(3.5, -1.0) != -1.0 {
			return fmt.Errorf("float min/max broken")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTracerRecordsRuntimeBlocking: the time a rank spends parked on its
// mailbox is charged to the primitive it parked in. The receiver posts
// only once the rendezvous sender is parked on the acknowledgement, so
// the Send's one event must report Blocked > 0.
func TestTracerRecordsRuntimeBlocking(t *testing.T) {
	log := &eventLog{}
	big := make([]float64, 50_000)
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return Send(c, big, 1, 0)
		}
		sender := c.world.mailboxes[0]
		for parked := false; !parked; runtime.Gosched() {
			sender.mu.Lock()
			parked = sender.waiting.kind != waitNone
			sender.mu.Unlock()
		}
		_, _, err := Recv[float64](c, 0, 0)
		return err
	}, WithHook(log))
	if err != nil {
		t.Fatal(err)
	}
	sends := log.byPrim()[PrimSend]
	if len(sends) != 1 {
		t.Fatalf("%d MPI_Send events, want 1", len(sends))
	}
	if e := sends[0]; e.Blocked <= 0 || e.Blocked > e.Dur {
		t.Fatalf("rendezvous send parked on its ack reports Blocked %v of Dur %v", e.Blocked, e.Dur)
	}
}

func TestWaitIdempotent(t *testing.T) {
	// Wait after completion must return the same payload and status.
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return Send(c, []int{5}, 1, 3)
		}
		req, err := Irecv[int](c, 0, 3)
		if err != nil {
			return err
		}
		first, st1, err := req.Wait()
		if err != nil {
			return err
		}
		second, st2, err := req.Wait()
		if err != nil {
			return err
		}
		if string(first) != string(second) || st1 != st2 {
			t.Errorf("Wait not idempotent: %v/%v vs %v/%v", first, st1, second, st2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWaitallHandlesNilAndEmpty(t *testing.T) {
	if err := Waitall(); err != nil {
		t.Fatal(err)
	}
	if err := Waitall(nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSendrecvSelf(t *testing.T) {
	err := Run(1, func(c *Comm) error {
		got, st, err := Sendrecv(c, []int{7}, 0, 1, 0, 1)
		if err != nil {
			return err
		}
		if got[0] != 7 || st.Source != 0 {
			return fmt.Errorf("self sendrecv %v %+v", got, st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestZeroLengthMessages(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return Send(c, []float64{}, 1, 0)
		}
		xs, st, err := Recv[float64](c, 0, 0)
		if err != nil {
			return err
		}
		if len(xs) != 0 || st.Bytes != 0 {
			return fmt.Errorf("zero-length message: %v %+v", xs, st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
