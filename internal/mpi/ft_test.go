package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

// testInjector adapts plain functions to the Injector interface so the
// runtime tests do not depend on internal/faults (which depends on mpi).
type testInjector struct {
	atCall  func(rank, call int) bool
	atFrame func(src, dst int) (FrameAction, time.Duration)
}

func (t *testInjector) AtCall(rank, call int) bool {
	if t.atCall == nil {
		return false
	}
	return t.atCall(rank, call)
}

func (t *testInjector) AtFrame(src, dst int) (FrameAction, time.Duration) {
	if t.atFrame == nil {
		return FrameDeliver, 0
	}
	return t.atFrame(src, dst)
}

// killAtCall kills one rank at its n-th primitive.
func killAtCall(rank, call int) *testInjector {
	return &testInjector{atCall: func(r, c int) bool { return r == rank && c == call }}
}

// resilientSum is the recovery scenario of the acceptance criteria: every
// rank contributes rank+1 to an Allreduce; when the injected kill fires,
// survivors observe RankFailedError, Shrink, and redo the sum on the
// reduced world. It returns the survivors' post-recovery sum via sums.
func resilientSum(killRank int, sums []int64) func(*Comm) error {
	return func(c *Comm) error {
		contrib := []int64{int64(c.Rank() + 1)}
		res, err := Allreduce(c, contrib, OpSum)
		if err == nil {
			return fmt.Errorf("rank %d: allreduce across the kill unexpectedly succeeded (%v)", c.Rank(), res)
		}
		if c.Rank() == killRank {
			if !errors.Is(err, ErrRankKilled) {
				return fmt.Errorf("killed rank got %v, want ErrRankKilled", err)
			}
			return err // simulated crash: propagate like a dying process
		}
		if !errors.Is(err, ErrRankFailed) {
			return fmt.Errorf("survivor %d got %v, want RankFailedError", c.Rank(), err)
		}
		var rfe *RankFailedError
		if !errors.As(err, &rfe) || len(rfe.Ranks) != 1 || rfe.Ranks[0] != killRank {
			return fmt.Errorf("survivor %d: failed set %v, want [%d]", c.Rank(), err, killRank)
		}
		nc, err := c.Shrink()
		if err != nil {
			return fmt.Errorf("survivor %d: Shrink: %w", c.Rank(), err)
		}
		if nc.Size() != c.Size()-1 {
			return fmt.Errorf("shrunken size %d, want %d", nc.Size(), c.Size()-1)
		}
		res, err = Allreduce(nc, contrib, OpSum)
		if err != nil {
			return fmt.Errorf("survivor %d: post-shrink allreduce: %w", c.Rank(), err)
		}
		sums[c.Rank()] = res[0]
		return nil
	}
}

// TestFaultKillShrinkChannel: rank 2 is killed at its first call on the
// channel transport; the kill is declared synchronously, survivors shrink
// and complete. The world error carries only the simulated crash — no
// deadlock, no abort.
func TestFaultKillShrinkChannel(t *testing.T) {
	defer leakcheck.Snapshot(t, poolGauge()).Check()
	const np, victim = 4, 2
	sums := make([]int64, np)
	err := Run(np, resilientSum(victim, sums), WithInjector(killAtCall(victim, 1)))
	if err == nil || !errors.Is(err, ErrRankKilled) {
		t.Fatalf("want the killed rank's ErrRankKilled in the world error, got %v", err)
	}
	if errors.Is(err, ErrDeadlock) || errors.Is(err, ErrAborted) {
		t.Fatalf("kill must not surface as deadlock or abort: %v", err)
	}
	want := int64(1 + 2 + 4) // ranks 0,1,3 contribute rank+1
	for r := 0; r < np; r++ {
		if r == victim {
			continue
		}
		if sums[r] != want {
			t.Fatalf("survivor %d post-shrink sum %d, want %d", r, sums[r], want)
		}
	}
}

// TestFaultKillShrinkTCPHeartbeat is the acceptance scenario on the TCP
// transport: the kill is detected by heartbeat silence (not the
// watchdog), survivors unblock with RankFailedError within a few
// heartbeat intervals, and the shrunken world completes.
func TestFaultKillShrinkTCPHeartbeat(t *testing.T) {
	defer leakcheck.Snapshot(t, poolGauge()).Check()
	const (
		np     = 4
		victim = 1
		hb     = 300 * time.Millisecond
	)
	sums := make([]int64, np)
	var detectNanos atomic.Int64
	fn := resilientSum(victim, sums)
	start := time.Now()
	err := RunTCP(np, func(c *Comm) error {
		err := fn(c)
		if c.Rank() != victim && detectNanos.Load() == 0 {
			detectNanos.Store(int64(time.Since(start)))
		}
		return err
	},
		WithInjector(killAtCall(victim, 1)),
		WithHeartbeat(hb),
		WithWatchdog(60*time.Second), // far beyond the test: detection must not come from here
	)
	if err == nil || !errors.Is(err, ErrRankKilled) {
		t.Fatalf("want ErrRankKilled in world error, got %v", err)
	}
	if errors.Is(err, ErrAborted) || errors.Is(err, ErrDeadlock) {
		t.Fatalf("heartbeat detection must not surface as abort/deadlock: %v", err)
	}
	want := int64(1 + 3 + 4) // ranks 0,2,3 contribute rank+1
	for r := 0; r < np; r++ {
		if r == victim {
			continue
		}
		if sums[r] != want {
			t.Fatalf("survivor %d post-shrink sum %d, want %d", r, sums[r], want)
		}
	}
	d := time.Duration(detectNanos.Load())
	t.Logf("failure detected, shrunk, and recomputed in %v (heartbeat %v)", d, hb)
	if d > 20*hb {
		t.Fatalf("failure detection took %v, want within a few heartbeat intervals (%v)", d, hb)
	}
}

// TestAgreeAfterFailure: survivors of a kill reach agreement on the
// original communicator (acknowledging the failure), both when all vote
// true and when one votes false.
func TestAgreeAfterFailure(t *testing.T) {
	defer leakcheck.Snapshot(t, poolGauge()).Check()
	const np, victim = 3, 1
	err := Run(np, func(c *Comm) error {
		err := c.Barrier()
		if c.Rank() == victim {
			if !errors.Is(err, ErrRankKilled) {
				return fmt.Errorf("killed rank got %v", err)
			}
			return err
		}
		if !errors.Is(err, ErrRankFailed) {
			return fmt.Errorf("survivor %d: barrier got %v, want RankFailedError", c.Rank(), err)
		}
		got, err := c.Agree(true)
		if err != nil {
			return fmt.Errorf("Agree(true): %w", err)
		}
		if !got {
			return fmt.Errorf("Agree over all-true votes = false")
		}
		got, err = c.Agree(c.Rank() != 0) // rank 0 votes false
		if err != nil {
			return fmt.Errorf("Agree(mixed): %w", err)
		}
		if got {
			return fmt.Errorf("Agree with a false vote = true")
		}
		// After agreement the failure is acknowledged: survivors can keep
		// using the original communicator point-to-point.
		if c.Rank() == 0 {
			return Send(c, []byte{7}, 2, 5)
		}
		b, _, err := c.RecvBytes(0, 5)
		if err != nil {
			return err
		}
		if len(b) != 1 || b[0] != 7 {
			return fmt.Errorf("post-agree message corrupted: %v", b)
		}
		Release(b)
		return nil
	}, WithInjector(killAtCall(victim, 1)))
	if err == nil || !errors.Is(err, ErrRankKilled) {
		t.Fatalf("want only the simulated crash, got %v", err)
	}
}

// TestOpTimeout: a Recv that can never match returns ErrTimeout once the
// per-operation deadline passes (detector off so the timeout, not the
// deadlock verdict, fires).
func TestOpTimeout(t *testing.T) {
	release := make(chan struct{})
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			_, _, err := c.RecvBytes(1, 3)
			close(release)
			if !errors.Is(err, ErrTimeout) {
				return fmt.Errorf("got %v, want ErrTimeout", err)
			}
			return nil
		}
		<-release // keep rank 1 alive (not finished) until the timeout fires
		return nil
	}, WithOpTimeout(100*time.Millisecond), WithDeadlockDetection(false))
	if err != nil {
		t.Fatal(err)
	}
}

// TestOpTimeoutRendezvous: a rendezvous send with no matching receive
// times out instead of hanging.
func TestOpTimeoutRendezvous(t *testing.T) {
	release := make(chan struct{})
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			err := Ssend(c, []byte("payload"), 1, 3)
			close(release)
			if !errors.Is(err, ErrTimeout) {
				return fmt.Errorf("got %v, want ErrTimeout", err)
			}
			return nil
		}
		<-release
		return nil
	}, WithOpTimeout(100*time.Millisecond), WithDeadlockDetection(false))
	if err != nil {
		t.Fatal(err)
	}
}

// TestOpTimeoutEveryWait: each kind of blocking wait gives up with
// ErrTimeout once the per-operation deadline passes, and its message
// names the wait as the watchdog's diagnostic does (waitInfo.String).
// Rank 1 stays alive and silent until rank 0's wait has returned.
func TestOpTimeoutEveryWait(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		wait       func(c *Comm) error
	}{
		{"recv", "recv(src=1, tag=3)", func(c *Comm) error {
			_, _, err := c.RecvBytes(1, 3)
			return err
		}},
		{"probe", "probe(src=1, tag=3)", func(c *Comm) error {
			_, err := c.Probe(1, 3)
			return err
		}},
		{"ack", "send-ack(seq=", func(c *Comm) error {
			return Ssend(c, []byte("payload"), 1, 3)
		}},
		{"icoll", PrimIallreduce.String() + " wait", func(c *Comm) error {
			req, err := Iallreduce(c, []float64{1}, OpSum)
			if err != nil {
				return err
			}
			return req.Wait()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			onBothEndpoints(t, func(t *testing.T, run runFunc) {
				release := make(chan struct{})
				err := run(2, func(c *Comm) error {
					if c.Rank() == 1 {
						<-release
						return nil
					}
					err := tc.wait(c)
					close(release)
					if !errors.Is(err, ErrTimeout) || !strings.Contains(err.Error(), tc.want) {
						return fmt.Errorf("got %v, want ErrTimeout naming %s", err, tc.want)
					}
					return nil
				}, WithOpTimeout(100*time.Millisecond), WithDeadlockDetection(false),
					// With the detector off a bare channel world has no
					// watchdog of its own: a wait that never reaches its
					// deadline must fail, naming where rank 0 blocked.
					WithWatchdog(10*time.Second))
				if err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// TestOpTimeoutSpansCollWait: one op-timeout deadline covers a whole
// collective Wait, not each of its turns. A 4-rank ring Iallreduce needs
// six dependent hops, each a 30 ms link transit: no single hop takes the
// 50 ms timeout, the Wait as a whole does, so every rank must time out.
func TestOpTimeoutSpansCollWait(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		req, err := Iallreduce(c, make([]float64, 8), OpSum)
		if err != nil {
			return err
		}
		if err := req.Wait(); !errors.Is(err, ErrTimeout) {
			return fmt.Errorf("rank %d: Wait = %v, want ErrTimeout", c.Rank(), err)
		}
		return nil
	}, WithLinkLatency(30*time.Millisecond), WithOpTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
}

// TestOpTimeoutRMAFetch: a one-sided fetch gives up with ErrTimeout
// naming its reply, and the reply that arrives later lands in the
// mailbox's reply table, whose pooled payload teardown recycles. On Run a
// Get takes the shared-memory path and never waits, so this runs on
// RunTCP. Every link transit (300 ms) outlasts the timeout (100 ms), so
// WinCreate's barrier times out on rank 1, which enters it first; its
// region is registered before the barrier and serves the Get regardless.
// Rank 0 enters only once rank 1's barrier message is queued, so its
// barrier does not wait.
func TestOpTimeoutRMAFetch(t *testing.T) {
	defer leakcheck.Snapshot(t, poolGauge()).Check()
	const size = 1024
	release := make(chan struct{})
	err := RunTCP(2, func(c *Comm) error {
		if c.Rank() == 1 {
			if _, err := c.WinCreate(size); !errors.Is(err, ErrTimeout) {
				return fmt.Errorf("rank 1: WinCreate = %v, want ErrTimeout", err)
			}
			<-release
			return nil
		}
		defer close(release)
		awaitMailbox(c.mb, func(mb *mailbox) bool { return len(mb.unexpected) > 0 })
		win, err := c.WinCreate(size)
		if err != nil {
			return err
		}
		if _, err := win.Get(1, 0, size); !errors.Is(err, ErrTimeout) || !strings.Contains(err.Error(), "rma-fetch(seq=") {
			return fmt.Errorf("Get = %v, want ErrTimeout naming rma-fetch(seq=", err)
		}
		awaitMailbox(c.mb, func(mb *mailbox) bool { return len(mb.replies) > 0 })
		return nil
	}, WithLinkLatency(300*time.Millisecond), WithOpTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
}

// TestOpTimeoutSendrecvWithdrawsReceive: a Sendrecv whose send half
// times out must take its posted receive back. Left posted, the orphan
// matches the next message on (src, recvTag) — here the one rank 1 sends
// after the timeout — and both the message and its pooled buffer are
// lost to the application. Rank 1 only polls its mailbox before its
// sends: a blocking wait would hit the operation deadline itself.
func TestOpTimeoutSendrecvWithdrawsReceive(t *testing.T) {
	defer leakcheck.Snapshot(t, poolGauge()).Check()
	const tagBig, tagReply, tagTimedOut, tagReplied = 1, 2, 3, 4
	recvRelease := func(c *Comm, src, tag int) error {
		b, _, err := c.RecvBytes(src, tag)
		Release(b)
		return err
	}
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 1 {
			if err := awaitQueued(c, 0, tagTimedOut); err != nil {
				return err
			}
			if err := recvRelease(c, 0, tagTimedOut); err != nil {
				return err
			}
			if err := recvRelease(c, 0, tagBig); err != nil { // queued since before the timeout
				return err
			}
			if err := Send(c, []byte("reply"), 0, tagReply); err != nil {
				return err
			}
			return Send[byte](c, nil, 0, tagReplied)
		}
		big := make([]byte, 1<<20) // rendezvous: the send half waits for a match
		if _, _, err := c.SendrecvBytes(big, 1, tagBig, 1, tagReply); !errors.Is(err, ErrTimeout) {
			return fmt.Errorf("Sendrecv to an absent receiver: got %v, want ErrTimeout", err)
		}
		c.mb.mu.Lock()
		posted := len(c.mb.pending)
		c.mb.mu.Unlock()
		if posted != 0 {
			return fmt.Errorf("%d receive(s) still posted after the failed Sendrecv", posted)
		}
		if err := Send[byte](c, nil, 1, tagTimedOut); err != nil {
			return err
		}
		// Once tagReplied is visible the reply sent before it has been
		// delivered too, so the receive below never waits.
		if err := awaitQueued(c, 1, tagReplied); err != nil {
			return err
		}
		if err := recvRelease(c, 1, tagReplied); err != nil {
			return err
		}
		return recvRelease(c, 1, tagReply)
	}, WithOpTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
}

// queued reports whether a message from src with tag waits unreceived
// in c's mailbox: the nonblocking probe.
func queued(c *Comm, src, tag int) bool {
	c.mb.mu.Lock()
	defer c.mb.mu.Unlock()
	return slices.ContainsFunc(c.mb.unexpected, func(e *envelope) bool { return matches(e, c.ctx, src, tag) })
}

// awaitQueued polls, never blocks, until a message from src with tag
// waits unreceived in c's mailbox, or the world stops.
func awaitQueued(c *Comm, src, tag int) error {
	for {
		if queued(c, src, tag) {
			return nil
		}
		if err := c.world.stopErr(); err != nil { // the peer failed the test
			return err
		}
		runtime.Gosched()
	}
}

// TestOpTimeoutAlltoallWithdrawsReceive: each step of the pairwise
// all-to-all posts its receive before its send. When the send half fails
// — here a rendezvous-sized block to a rank that never joins times out —
// the receive must be taken back, or it swallows a later message on
// (source, tag) together with its pooled buffer. On both transports.
func TestOpTimeoutAlltoallWithdrawsReceive(t *testing.T) {
	const n, tagTimedOut = 1 << 17, 1 // n float64s: a 1 MiB block, far above the eager threshold
	for _, tr := range []struct {
		name string
		run  func(int, func(*Comm) error, ...Option) error
	}{{"channel", Run}, {"tcp", RunTCP}} {
		t.Run(tr.name+"/Alltoallv", func(t *testing.T) {
			defer leakcheck.Snapshot(t, poolGauge()).Check()
			err := tr.run(2, func(c *Comm) error {
				if c.Rank() == 1 {
					if err := awaitQueued(c, 0, tagTimedOut); err != nil {
						return err
					}
					b, _, err := c.RecvBytes(0, tagTimedOut)
					Release(b)
					return err
				}
				big := make([]float64, 2*n)
				if _, err := Alltoallv(c, [][]float64{big[:n], big[n:]}); !errors.Is(err, ErrTimeout) {
					return fmt.Errorf("Alltoallv to an absent rank: got %v, want ErrTimeout", err)
				}
				c.mb.mu.Lock()
				posted := len(c.mb.pending)
				c.mb.mu.Unlock()
				if posted != 0 {
					return fmt.Errorf("%d receive(s) still posted after the failed Alltoallv", posted)
				}
				return Send[byte](c, nil, 1, tagTimedOut)
			}, WithOpTimeout(50*time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFrameDropSurfacesAsTimeout: the injector eats the only data frame
// 0→1 of a raw link; with a per-op deadline the receiver reports the
// lossy link as ErrTimeout instead of hanging until the watchdog.
func TestFrameDropSurfacesAsTimeout(t *testing.T) {
	onBothEndpoints(t, func(t *testing.T, run runFunc) {
		defer leakcheck.Snapshot(t, poolGauge()).Check()
		var dropped atomic.Int32
		in := &testInjector{
			atFrame: func(src, dst int) (FrameAction, time.Duration) {
				if src == 0 && dst == 1 && dropped.CompareAndSwap(0, 1) {
					return FrameDrop, 0
				}
				return FrameDeliver, 0
			},
		}
		err := run(2, func(c *Comm) error {
			if c.Rank() == 0 {
				return Send(c, []byte("lost"), 1, 4) // eager: completes although the frame dies
			}
			_, _, err := c.RecvBytes(0, 4)
			if !errors.Is(err, ErrTimeout) {
				return fmt.Errorf("got %v, want ErrTimeout", err)
			}
			return nil
		}, WithInjector(in), WithOpTimeout(300*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		if dropped.Load() != 1 {
			t.Fatalf("injector dropped %d frames, want 1", dropped.Load())
		}
	})
}

// TestFrameDupIsHarmless: duplicating a frame must not corrupt matching —
// the duplicate either matches a later receive or is garbage-collected
// with the world. Here the receiver posts exactly one receive and
// verifies its payload.
func TestFrameDupIsHarmless(t *testing.T) {
	onBothEndpoints(t, func(t *testing.T, run runFunc) {
		defer leakcheck.Snapshot(t, poolGauge()).Check()
		var dup atomic.Int32
		in := &testInjector{
			atFrame: func(src, dst int) (FrameAction, time.Duration) {
				if src == 0 && dst == 1 && dup.CompareAndSwap(0, 1) {
					return FrameDup, 0
				}
				return FrameDeliver, 0
			},
		}
		err := run(2, func(c *Comm) error {
			if c.Rank() == 0 {
				return Send(c, []byte("once"), 1, 4)
			}
			b, _, err := c.RecvBytes(0, 4)
			if err != nil {
				return err
			}
			if string(b) != "once" {
				return fmt.Errorf("payload corrupted: %q", b)
			}
			Release(b)
			return nil
		}, WithInjector(in))
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestAbortPropagationChannel / TCP: a blocked Recv observes ErrAborted
// promptly when a peer aborts — well before any watchdog could fire.
func TestAbortPropagationChannel(t *testing.T) { testAbortPropagation(t, Run) }
func TestAbortPropagationTCP(t *testing.T)     { testAbortPropagation(t, RunTCP) }

func testAbortPropagation(t *testing.T, runner func(int, func(*Comm) error, ...Option) error) {
	t.Helper()
	defer leakcheck.Snapshot(t, poolGauge()).Check()
	cause := errors.New("deliberate test abort")
	var sawAbort atomic.Bool
	start := time.Now()
	err := runner(2, func(c *Comm) error {
		if c.Rank() == 1 {
			time.Sleep(20 * time.Millisecond)
			c.world.abort(cause)
			return nil
		}
		_, _, err := c.RecvBytes(1, 9)
		if !errors.Is(err, ErrAborted) {
			return fmt.Errorf("blocked recv got %v, want ErrAborted", err)
		}
		sawAbort.Store(true)
		return nil
	}, WithWatchdog(60*time.Second))
	if err == nil || !strings.Contains(err.Error(), "deliberate test abort") {
		t.Fatalf("world error should carry the abort cause, got %v", err)
	}
	if !sawAbort.Load() {
		t.Fatal("blocked receiver never observed ErrAborted")
	}
	if d := time.Since(start); d > 20*time.Second {
		t.Fatalf("abort took %v to propagate: watchdog fallback suspected", d)
	}
}

// TestWatchdogDiagnostic: the watchdog's abort error names the blocked
// ranks and their wait kinds, reusing the deadlock detector's
// blocked-state records.
func TestWatchdogDiagnostic(t *testing.T) {
	err := RunTCP(2, func(c *Comm) error {
		// Head-to-head receives: classic deadlock, invisible to the
		// precise detector over TCP.
		_, _, err := c.RecvBytes(1-c.Rank(), 2)
		return err
	}, WithWatchdog(250*time.Millisecond))
	if err == nil || !errors.Is(err, ErrAborted) {
		t.Fatalf("want watchdog abort, got %v", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "no progress for") {
		t.Fatalf("watchdog cause missing from world error: %v", msg)
	}
	if !strings.Contains(msg, "rank 0 blocked in recv(src=1") || !strings.Contains(msg, "rank 1 blocked in recv(src=0") {
		t.Fatalf("watchdog diagnostic does not identify blocked ranks: %v", msg)
	}
}

// TestShrinkIsCollectiveAndOrdered: shrinking twice after two distinct
// failures yields consistent, ordered survivor worlds.
func TestShrinkTwice(t *testing.T) {
	defer leakcheck.Snapshot(t, poolGauge()).Check()
	const np = 5
	in := &testInjector{atCall: func(r, call int) bool {
		return (r == 1 && call == 1) || (r == 3 && call == 4)
	}}
	err := Run(np, func(c *Comm) error {
		work := func(cc *Comm) error {
			_, err := Allreduce(cc, []int64{1}, OpSum)
			return err
		}
		cur := c
		for {
			err := work(cur)
			if err == nil {
				if cur == c {
					return fmt.Errorf("first allreduce must fail")
				}
				return nil
			}
			if errors.Is(err, ErrRankKilled) {
				return err
			}
			if !errors.Is(err, ErrRankFailed) {
				return fmt.Errorf("rank %d: %w", c.Rank(), err)
			}
			nc, serr := cur.Shrink()
			if serr != nil {
				if errors.Is(serr, ErrRankFailed) {
					// Another failure landed during recovery; re-shrink.
					continue
				}
				if errors.Is(serr, ErrRankKilled) {
					return serr
				}
				return fmt.Errorf("rank %d: Shrink: %w", c.Rank(), serr)
			}
			cur = nc
		}
	}, WithInjector(in))
	if err == nil || !errors.Is(err, ErrRankKilled) {
		t.Fatalf("want only simulated crashes in the world error, got %v", err)
	}
	if errors.Is(err, ErrDeadlock) || errors.Is(err, ErrAborted) {
		t.Fatalf("recovery surfaced as deadlock/abort: %v", err)
	}
}

// TestFailedRanksAccessor: survivors can enumerate the failed set.
func TestFailedRanksAccessor(t *testing.T) {
	defer leakcheck.Snapshot(t, poolGauge()).Check()
	err := Run(3, func(c *Comm) error {
		err := c.Barrier()
		if c.Rank() == 2 {
			return err // the victim
		}
		if !errors.Is(err, ErrRankFailed) {
			return fmt.Errorf("got %v", err)
		}
		got := c.FailedRanks()
		if len(got) != 1 || got[0] != 2 {
			return fmt.Errorf("FailedRanks = %v, want [2]", got)
		}
		_, err = c.Shrink()
		return err
	}, WithInjector(killAtCall(2, 1)))
	if err == nil || !errors.Is(err, ErrRankKilled) {
		t.Fatalf("unexpected world error: %v", err)
	}
}
