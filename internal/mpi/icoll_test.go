package mpi

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

// icollTransports runs one body on both transports, like rmaTransports.
func icollTransports(t *testing.T, np int, body func(*Comm) error, opts ...Option) {
	t.Helper()
	t.Run("channel", func(t *testing.T) {
		if err := Run(np, body, opts...); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("tcp", func(t *testing.T) {
		if err := RunTCP(np, body, opts...); err != nil {
			t.Fatal(err)
		}
	})
}

func TestIallreduce(t *testing.T) {
	forSizes(t, func(t *testing.T, np int) {
		// Lengths around the segment boundary: divisible (in-place rings)
		// and non-divisible (padded working copy).
		for _, n := range []int{0, 1, np, 3*np + 1, 64} {
			err := Run(np, func(c *Comm) error {
				buf := make([]int64, n)
				for i := range buf {
					buf[i] = int64(c.Rank()*1000 + i)
				}
				cr, err := Iallreduce(c, buf, OpSum)
				if err != nil {
					return err
				}
				if err := cr.Wait(); err != nil {
					return err
				}
				for i := range buf {
					want := int64(np*i) + 1000*int64(np*(np-1)/2)
					if buf[i] != want {
						return fmt.Errorf("rank %d elem %d: got %d, want %d", c.Rank(), i, buf[i], want)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
		}
	})
}

// TestIallreduceOverlap proves the background engine finishes a ring on
// delivering goroutines alone. Ranks 0..p-2 Wait and then signal; only
// after all of them have, the last rank — which has neither waited nor
// tested — watches its own request complete, then Waits (twice: Wait is
// idempotent). The other ranks' Waits can only return if the last rank's
// hops were sent on goroutines other than its own.
func TestIallreduceOverlap(t *testing.T) {
	const n, np = 1 << 12, 4
	waited := make(chan struct{}, np-1)
	icollTransports(t, np, func(c *Comm) error {
		buf := make([]float64, n)
		for i := range buf {
			buf[i] = float64(c.Rank() + 1)
		}
		cr, err := Iallreduce(c, buf, OpSum)
		if err != nil {
			return err
		}
		if c.Rank() < np-1 {
			err := cr.Wait()
			waited <- struct{}{}
			if err != nil {
				return err
			}
		} else {
			for i := 0; i < np-1; i++ {
				<-waited
			}
			// The watchdog aborts the world if the ring stalls.
			for !cr.done.Load() {
				if err := c.world.stopErr(); err != nil {
					return err
				}
				runtime.Gosched()
			}
			if err := cr.Wait(); err != nil {
				return err
			}
		}
		for i := range buf {
			if buf[i] != 10 { // 1+2+3+4
				return fmt.Errorf("rank %d elem %d: got %v, want 10", c.Rank(), i, buf[i])
			}
		}
		// Waiting again must be idempotent.
		return cr.Wait()
	}, WithWatchdog(10*time.Second))
}

// TestCollRequestNotReused pins that a completed request is never
// recycled: after request A completes and request B runs to completion
// on the same communicator, A's Wait still returns at once with A's
// result, and B's buffer holds B's.
func TestCollRequestNotReused(t *testing.T) {
	icollTransports(t, 3, func(c *Comm) error {
		a := []int64{int64(c.Rank() + 1), 1}
		ra, err := Iallreduce(c, a, OpSum)
		if err != nil {
			return err
		}
		if err := ra.Wait(); err != nil {
			return err
		}
		b := []int64{int64(10 * (c.Rank() + 1)), 2}
		rb, err := Iallreduce(c, b, OpSum)
		if err != nil {
			return err
		}
		if err := rb.Wait(); err != nil {
			return err
		}
		if rb == ra {
			return fmt.Errorf("rank %d: request B is request A", c.Rank())
		}
		if err := ra.Wait(); err != nil {
			return fmt.Errorf("rank %d: A's Wait after B: %v", c.Rank(), err)
		}
		if a[0] != 6 || a[1] != 3 || b[0] != 60 || b[1] != 6 {
			return fmt.Errorf("rank %d: A %v, B %v, want [6 3] and [60 6]", c.Rank(), a, b)
		}
		return nil
	})
}

// TestIallreduceConcurrent keeps several collectives in flight at once;
// distinct tags must keep their hop streams separate.
func TestIallreduceConcurrent(t *testing.T) {
	const outstanding = 8
	icollTransports(t, 3, func(c *Comm) error {
		reqs := make([]*CollRequest, outstanding)
		bufs := make([][]int64, outstanding)
		for k := range reqs {
			bufs[k] = []int64{int64((k + 1) * (c.Rank() + 1)), int64(k)}
			var err error
			reqs[k], err = Iallreduce(c, bufs[k], OpSum)
			if err != nil {
				return err
			}
		}
		if err := WaitallColl(reqs...); err != nil {
			return err
		}
		for k := range bufs {
			want := int64((k + 1) * 6) // (1+2+3) ranks
			if bufs[k][0] != want || bufs[k][1] != int64(3*k) {
				return fmt.Errorf("rank %d coll %d: got %v", c.Rank(), k, bufs[k])
			}
		}
		return nil
	})
}

func TestIallgather(t *testing.T) {
	forSizes(t, func(t *testing.T, np int) {
		err := Run(np, func(c *Comm) error {
			const n = 5
			buf := make([]int64, n*np)
			for i := 0; i < n; i++ {
				buf[c.Rank()*n+i] = int64(c.Rank()*10 + i)
			}
			cr, err := Iallgather(c, buf)
			if err != nil {
				return err
			}
			if err := cr.Wait(); err != nil {
				return err
			}
			for r := 0; r < np; r++ {
				for i := 0; i < n; i++ {
					if buf[r*n+i] != int64(r*10+i) {
						return fmt.Errorf("rank %d block %d elem %d: got %d", c.Rank(), r, i, buf[r*n+i])
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestReduceScatter(t *testing.T) {
	forSizes(t, func(t *testing.T, np int) {
		err := Run(np, func(c *Comm) error {
			const seg = 4
			data := make([]int64, seg*np)
			for i := range data {
				data[i] = int64((c.Rank() + 1) * (i + 1))
			}
			if err := ReduceScatterInto(c, data, OpSum); err != nil {
				return err
			}
			sum := int64(np * (np + 1) / 2)
			for i, got := range data[c.Rank()*seg : (c.Rank()+1)*seg] {
				want := sum * int64(c.Rank()*seg+i+1)
				if got != want {
					return fmt.Errorf("rank %d elem %d: got %d, want %d", c.Rank(), i, got, want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestReduceScatterBitIdentityWithIallreduce pins the property ZeRO-1
// training relies on: rank r's ReduceScatterInto shard is bit-identical
// to the same segment of an Iallreduce result, because both run the same
// shifted ring schedule with the same fold order.
func TestReduceScatterBitIdentityWithIallreduce(t *testing.T) {
	forSizes(t, func(t *testing.T, np int) {
		const seg = 7
		err := Run(np, func(c *Comm) error {
			rng := rand.New(rand.NewSource(int64(c.Rank()) + 42))
			orig := make([]float64, seg*np)
			for i := range orig {
				orig[i] = rng.NormFloat64() * math.Exp(rng.NormFloat64()*8)
			}
			a := append([]float64(nil), orig...)
			cr, err := Iallreduce(c, a, OpSum)
			if err != nil {
				return err
			}
			if err := cr.Wait(); err != nil {
				return err
			}
			b := append([]float64(nil), orig...)
			if err := ReduceScatterInto(c, b, OpSum); err != nil {
				return err
			}
			if !reflect.DeepEqual(a[c.Rank()*seg:(c.Rank()+1)*seg], b[c.Rank()*seg:(c.Rank()+1)*seg]) {
				return fmt.Errorf("rank %d: reduce-scatter shard differs from allreduce segment", c.Rank())
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestBlockingMatchesNonblockingBits: a blocking collective and its
// nonblocking twin run the same schedule value under two drivers, so on
// data whose sum depends on association order they must agree to the bit
// — on both transports, and (n is prime) through the rings' padded path.
func TestBlockingMatchesNonblockingBits(t *testing.T) {
	const n = 11
	sameBits := func(what string, a, b []float64) error {
		if len(a) != len(b) {
			return fmt.Errorf("%s: %d elements blocking, %d nonblocking", what, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return fmt.Errorf("%s: element %d is %x blocking, %x nonblocking", what, i, a[i], b[i])
			}
		}
		return nil
	}
	wait := func(cr *CollRequest, err error) error {
		if err != nil {
			return err
		}
		return cr.Wait()
	}
	for np := 2; np <= 7; np++ {
		t.Run(fmt.Sprintf("np=%d", np), func(t *testing.T) {
			icollTransports(t, np, func(c *Comm) error {
				r := c.Rank()
				rng := rand.New(rand.NewSource(int64(r) + 7))
				orig := make([]float64, n)
				for i := range orig {
					orig[i] = rng.NormFloat64() * math.Exp(rng.NormFloat64()*8)
				}
				a, err := allgather(c, orig)
				if err != nil {
					return err
				}
				b := make([]float64, n*np)
				copy(b[r*n:], orig)
				if err := wait(Iallgather(c, b)); err != nil {
					return err
				}
				if err := sameBits("allgather", a, b); err != nil {
					return err
				}

				a, err = AllreduceRing(c, orig, OpSum)
				if err != nil {
					return err
				}
				b = append([]float64(nil), orig...)
				if err := wait(Iallreduce(c, b, OpSum)); err != nil {
					return err
				}
				return sameBits("ring allreduce", a, b)
			})
		})
	}
}

func TestIcollTCP(t *testing.T) {
	err := RunTCP(4, func(c *Comm) error {
		buf := make([]float64, 1024)
		for i := range buf {
			buf[i] = float64(c.Rank())
		}
		cr, err := Iallreduce(c, buf, OpSum)
		if err != nil {
			return err
		}
		if err := cr.Wait(); err != nil {
			return err
		}
		if buf[17] != 6 { // 0+1+2+3
			return fmt.Errorf("rank %d: got %v", c.Rank(), buf[17])
		}
		rs := make([]float64, 4*4)
		for i := range rs {
			rs[i] = float64(c.Rank() + 1)
		}
		if err := ReduceScatterInto(c, rs, OpSum); err != nil {
			return err
		}
		if rs[c.Rank()*4] != 10 {
			return fmt.Errorf("rank %d: shard got %v", c.Rank(), rs[c.Rank()*4])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestIcollEventParity: the MPI_I* initiation events and their paired
// MPI_Wait_coll completions must be identical on the channel and TCP
// transports — background progress must be invisible to profilers.
func TestIcollEventParity(t *testing.T) {
	const np = 3
	body := func(c *Comm) error {
		buf := make([]float64, 30)
		for i := range buf {
			buf[i] = float64(c.Rank())
		}
		cr, err := Iallreduce(c, buf, OpSum)
		if err != nil {
			return err
		}
		if err := cr.Wait(); err != nil {
			return err
		}
		ag := make([]int64, 8*np)
		crg, err := Iallgather(c, ag)
		if err != nil {
			return err
		}
		if err := WaitallColl(crg); err != nil {
			return err
		}
		rs := make([]float64, 3*np)
		return ReduceScatterInto(c, rs, OpSum)
	}
	signature := func(events []Event) map[string]int {
		sig := make(map[string]int)
		for _, e := range events {
			if e.Prim < PrimIallreduce || e.Prim > PrimWaitColl {
				continue
			}
			paired := e.SendID != 0 || e.RecvID != 0
			sig[fmt.Sprintf("%s/rank%d/bytes%d/paired=%t", e.Prim, e.Rank, e.Bytes, paired)]++
		}
		return sig
	}
	chEv, tcpEv := &eventLog{}, &eventLog{}
	if err := Run(np, body, WithHook(chEv)); err != nil {
		t.Fatalf("channel: %v", err)
	}
	if err := RunTCP(np, body, WithHook(tcpEv)); err != nil {
		t.Fatalf("tcp: %v", err)
	}
	chSig, tcpSig := signature(chEv.snapshot()), signature(tcpEv.snapshot())
	if len(chSig) == 0 {
		t.Fatal("no nonblocking-collective events recorded on the channel transport")
	}
	// Every rank pairs each of its 2 initiations with one MPI_Wait_coll.
	for r := 0; r < np; r++ {
		key := fmt.Sprintf("%s/rank%d/bytes%d/paired=true", PrimIallreduce, r, 30*8)
		if chSig[key] != 1 {
			t.Errorf("rank %d Iallreduce initiation events: got %d, want 1", r, chSig[key])
		}
	}
	for k, n := range chSig {
		if tcpSig[k] != n {
			t.Errorf("event %q: channel %d, tcp %d", k, n, tcpSig[k])
		}
	}
	for k, n := range tcpSig {
		if _, ok := chSig[k]; !ok {
			t.Errorf("event %q: tcp %d, channel 0", k, n)
		}
	}
}

// TestFaultIallreduceKill kills a rank at its Iallreduce initiation:
// survivors must observe RankFailedError at Wait, the victim its own
// ErrRankKilled, and a fresh world on the same pools must run clean.
func TestFaultIallreduceKill(t *testing.T) {
	const np, victim = 4, 2
	body := func(c *Comm) error {
		buf := make([]float64, 4096)
		for i := range buf {
			buf[i] = float64(c.Rank())
		}
		cr, err := Iallreduce(c, buf, OpSum)
		if err != nil {
			return err
		}
		err = cr.Wait()
		if c.Rank() == victim {
			if !errors.Is(err, ErrRankKilled) {
				return fmt.Errorf("victim got %v, want ErrRankKilled", err)
			}
			return err // simulated crash
		}
		if !errors.Is(err, ErrRankFailed) {
			return fmt.Errorf("survivor %d got %v, want RankFailedError", c.Rank(), err)
		}
		var rfe *RankFailedError
		if !errors.As(err, &rfe) || len(rfe.Ranks) != 1 || rfe.Ranks[0] != victim {
			return fmt.Errorf("survivor %d: failed set %v, want [%d]", c.Rank(), err, victim)
		}
		return nil
	}
	err := Run(np, body, WithInjector(killAtCall(victim, 1)), WithWatchdog(30*time.Second))
	if err == nil || !errors.Is(err, ErrRankKilled) {
		t.Fatalf("want the victim's ErrRankKilled in the world error, got %v", err)
	}
	// The pools must be intact: an identical collective workload on a
	// fresh world must produce exact results.
	err = Run(np, func(c *Comm) error {
		buf := make([]float64, 4096)
		for i := range buf {
			buf[i] = float64(c.Rank() + 1)
		}
		cr, err := Iallreduce(c, buf, OpSum)
		if err != nil {
			return err
		}
		if err := cr.Wait(); err != nil {
			return err
		}
		for i := range buf {
			if buf[i] != 10 {
				return fmt.Errorf("elem %d: got %v after kill-recovery, want 10", i, buf[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("clean run after kill: %v", err)
	}
}

// TestIcollDeadlockDetected: a rank that never joins the collective must
// trip the deadlock detector, not hang — the waitColl census counts a
// Wait with no matched arrivals as unsatisfiable.
func TestIcollDeadlockDetected(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			cr, err := Iallreduce(c, []int64{1, 2}, OpSum)
			if err != nil {
				return err
			}
			return cr.Wait()
		}
		// Rank 1 waits for a message that never comes instead of joining.
		_, _, err := c.RecvBytes(0, 99)
		return err
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
}

// TestIcollDeadlockAfterProgress: a collective that consumed an arrival
// and then stalls is still a deadlock. At np = 3 rank 2 never joins, so
// rank 1 takes its first ring hop from rank 0 and then waits for a second
// that never comes: consuming that hop must clear its credit, or the
// detector would count rank 1 as ready forever.
func TestIcollDeadlockAfterProgress(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		if c.Rank() < 2 {
			cr, err := Iallreduce(c, []int64{1, 2, 3}, OpSum)
			if err != nil {
				return err
			}
			return cr.Wait()
		}
		_, _, err := c.RecvBytes(0, 99)
		return err
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
}

// TestAllocHygieneWaitall: when Waitall returns an error, the payloads of
// the receives that DID complete must go back to the pool — the caller
// only sees the error and can never Release them itself.
func TestAllocHygieneWaitall(t *testing.T) {
	const np, victim, msgBytes = 2, 1, 1024
	defer leakcheck.Snapshot(t, poolGauge()).Check()
	err := Run(np, func(c *Comm) error {
		if c.Rank() == victim {
			payload := make([]byte, msgBytes)
			// Two sends complete; the third primitive is the injected kill.
			if err := Send(c, payload, 0, 5); err != nil {
				return err
			}
			if err := Send(c, payload, 0, 5); err != nil {
				return err
			}
			err := Send(c, payload, 0, 5)
			if !errors.Is(err, ErrRankKilled) {
				return fmt.Errorf("victim got %v, want ErrRankKilled", err)
			}
			return err
		}
		var reqs []*Request
		for i := 0; i < 3; i++ {
			r, err := Irecv[byte](c, victim, 5)
			if err != nil {
				return err
			}
			reqs = append(reqs, r)
		}
		err := Waitall(reqs...)
		if err == nil {
			return fmt.Errorf("Waitall across the kill unexpectedly succeeded")
		}
		if !errors.Is(err, ErrRankFailed) {
			return fmt.Errorf("Waitall got %v, want RankFailedError", err)
		}
		return nil
	}, WithInjector(killAtCall(victim, 3)), WithWatchdog(30*time.Second))
	if err == nil || !errors.Is(err, ErrRankKilled) {
		t.Fatalf("want the victim's ErrRankKilled in the world error, got %v", err)
	}
	if err := Run(np, func(c *Comm) error { return hygieneTraffic(c, 20) }); err != nil {
		t.Fatalf("clean run after Waitall failure: %v", err)
	}
}

// TestAllocIallreduceSteady asserts the bounded-allocation criterion for
// the background ring: once pools are primed, a steady-state in-place
// Iallreduce costs one allocation per rank (the request, which holds its
// driver) regardless of payload size — every hop buffer, envelope and
// posted-receive record is recycled.
func TestAllocIallreduceSteady(t *testing.T) {
	const (
		warmup = 20
		rounds = 100
		n      = 1 << 10 // divisible by np: pure in-place rings
	)
	var avg float64
	err := Run(2, func(c *Comm) error {
		buf := make([]float64, n)
		step := func() error {
			cr, err := Iallreduce(c, buf, OpSum)
			if err != nil {
				return err
			}
			return cr.Wait()
		}
		for i := 0; i < warmup; i++ {
			if err := step(); err != nil {
				return err
			}
		}
		if c.Rank() == 0 {
			var inner error
			avg = testing.AllocsPerRun(rounds, func() {
				if err := step(); err != nil && inner == nil {
					inner = err
				}
			})
			return inner
		}
		// Peer: AllocsPerRun calls its body rounds+1 times.
		for i := 0; i < rounds+1; i++ {
			if err := step(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if raceEnabled {
		t.Skipf("allocs/op under -race: %.1f (budget not enforced)", avg)
	}
	// Both ranks' steady-state work lands in the process-wide counter:
	// one request per rank.
	if avg > 2 {
		t.Errorf("steady-state Iallreduce allocations: %.2f/op, want <= 2", avg)
	}
}
