package mpi

import (
	"errors"
	"fmt"
	"testing"
)

// TestDeadlockHeadToHeadSends is Module 1's classic lesson: two ranks that
// both Send synchronously before either receives deadlock. The runtime
// must detect it and fail instead of hanging.
func TestDeadlockHeadToHeadSends(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		peer := 1 - c.Rank()
		if err := Ssend(c, []int{c.Rank()}, peer, 0); err != nil {
			return err
		}
		_, _, err := Recv[int](c, peer, 0)
		return err
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
}

// TestDeadlockLargeEagerSends shows the same program deadlocks once the
// payload exceeds the eager threshold, even without Ssend — the behaviour
// students discover when "working" code breaks at larger problem sizes.
func TestDeadlockLargeEagerSends(t *testing.T) {
	big := make([]float64, 10_000)
	err := Run(2, func(c *Comm) error {
		peer := 1 - c.Rank()
		if err := Send(c, big, peer, 0); err != nil {
			return err
		}
		_, _, err := Recv[float64](c, peer, 0)
		return err
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
}

// TestNoDeadlockWithEagerSends verifies the same exchange succeeds when
// the messages fit the eager protocol — why the buggy pattern "works" for
// small inputs.
func TestNoDeadlockWithEagerSends(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		peer := 1 - c.Rank()
		if err := Send(c, []int{c.Rank()}, peer, 0); err != nil {
			return err
		}
		got, _, err := Recv[int](c, peer, 0)
		if err != nil {
			return err
		}
		if got[0] != peer {
			return fmt.Errorf("got %d, want %d", got[0], peer)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDeadlockOrderedSendsFixed: the textbook fix — odd ranks receive
// first — must not trip the detector.
func TestDeadlockOrderedSendsFixed(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		peer := 1 - c.Rank()
		if c.Rank()%2 == 0 {
			if err := Ssend(c, []int{c.Rank()}, peer, 0); err != nil {
				return err
			}
			_, _, err := Recv[int](c, peer, 0)
			return err
		}
		if _, _, err := Recv[int](c, peer, 0); err != nil {
			return err
		}
		return Ssend(c, []int{c.Rank()}, peer, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDeadlockAllRanksReceive: everyone waits for a message that never
// comes.
func TestDeadlockAllRanksReceive(t *testing.T) {
	for _, np := range []int{1, 2, 5} {
		err := Run(np, func(c *Comm) error {
			_, _, err := Recv[int](c, AnySource, AnyTag)
			return err
		})
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("np=%d: want ErrDeadlock, got %v", np, err)
		}
	}
}

// TestDeadlockCycle: a dependency cycle across three ranks.
func TestDeadlockCycle(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		// Everyone receives from the left before sending right: cycle.
		left := (c.Rank() + 2) % 3
		right := (c.Rank() + 1) % 3
		if _, _, err := Recv[int](c, left, 0); err != nil {
			return err
		}
		return Send(c, []int{1}, right, 0)
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
}

// TestDeadlockPartialFinish: one rank finishes immediately; the remaining
// ranks deadlock among themselves and must still be detected.
func TestDeadlockPartialFinish(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 2 {
			return nil // finishes without communicating
		}
		_, _, err := Recv[int](c, 1-c.Rank(), 0)
		return err
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
}

// TestNoFalsePositiveUnderLoad hammers the detector's re-verification: a
// lot of traffic where ranks frequently block must never be misflagged.
func TestNoFalsePositiveUnderLoad(t *testing.T) {
	err := Run(8, func(c *Comm) error {
		for i := 0; i < 300; i++ {
			right := (c.Rank() + 1) % c.Size()
			left := (c.Rank() - 1 + c.Size()) % c.Size()
			if _, _, err := Sendrecv(c, []int{i}, right, 0, left, 0); err != nil {
				return err
			}
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDeadlockMismatchedTag: receiver waits on a tag the sender never
// uses; the queued message must not satisfy the wait.
func TestDeadlockMismatchedTag(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := Send(c, []int{1}, 1, 3); err != nil {
				return err
			}
			_, _, err := Recv[int](c, 1, 0)
			return err
		}
		_, _, err := Recv[int](c, 0, 4) // wrong tag: message has tag 3
		return err
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
}

// TestDeadlockProbe: a Probe that no message can satisfy is a blocked
// wait like a receive. Both ranks probe for a tag nobody sends, and the
// message of another tag queued at rank 1 must not satisfy its probe.
func TestDeadlockProbe(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := Send(c, []int{1}, 1, 3); err != nil {
				return err
			}
		}
		_, err := c.Probe(1-c.Rank(), 4)
		return err
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
}

// TestDetectionDisabled: with the detector off, the watchdog must still
// rescue an otherwise-hung world.
func TestDetectionDisabledWatchdogRescues(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		_, _, err := Recv[int](c, AnySource, AnyTag)
		return err
	}, WithDeadlockDetection(false), WithWatchdog(50_000_000)) // 50ms
	if err == nil {
		t.Fatal("want watchdog error, got nil")
	}
	if errors.Is(err, ErrDeadlock) {
		t.Fatalf("detector should be off; got %v", err)
	}
}

// TestPostedIrecvUnblocksRendezvousCycle is the regression test for the
// MPI progress guarantee: every rank posts an Irecv and then blocks in a
// rendezvous-sized send around a ring. The posted receives must
// acknowledge the matching sends even though no rank has reached its
// Wait yet — real MPI completes this pattern, and the ring allreduce
// depends on it.
func TestPostedIrecvUnblocksRendezvousCycle(t *testing.T) {
	big := make([]float64, 50_000)
	err := Run(4, func(c *Comm) error {
		right := (c.Rank() + 1) % c.Size()
		left := (c.Rank() - 1 + c.Size()) % c.Size()
		req, err := Irecv[float64](c, left, 0)
		if err != nil {
			return err
		}
		if err := Send(c, big, right, 0); err != nil { // rendezvous: blocks until matched
			return err
		}
		got, _, err := WaitRecvInto[float64](req, nil)
		if err != nil {
			return err
		}
		if len(got) != len(big) {
			return fmt.Errorf("received %d of %d", len(got), len(big))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRingAllreduceLargePayload pins the original failure: the ring
// algorithm with segments beyond the eager threshold.
func TestRingAllreduceLargePayload(t *testing.T) {
	buf := make([]float64, 262_144)
	for i := range buf {
		buf[i] = 1
	}
	err := Run(4, func(c *Comm) error {
		out, err := AllreduceRing(c, buf, OpSum)
		if err != nil {
			return err
		}
		if out[123] != 4 {
			return fmt.Errorf("element 123 = %v, want 4", out[123])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
