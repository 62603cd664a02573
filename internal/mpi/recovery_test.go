package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

// lifecycleFunc is a hook that observes only the fault-tolerance
// timeline, synchronously on the goroutine that emits each event.
type lifecycleFunc func(LifecycleEvent)

func (lifecycleFunc) Event(Event)                  {}
func (f lifecycleFunc) Lifecycle(e LifecycleEvent) { f(e) }

// spinUntil yields until cond holds for the world published in w, or
// that world stops. It orders a test's steps without a clock.
func spinUntil(w *atomic.Pointer[World], cond func(*World) bool) {
	for {
		if wd := w.Load(); wd != nil && (cond(wd) || wd.stopErr() != nil) {
			return
		}
		runtime.Gosched()
	}
}

// parked reports whether world rank r is blocked in its mailbox.
func parked(w *World, r int) bool {
	mb := w.mailboxes[r]
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.waiting.kind != waitNone
}

// TestRecoveryRespawnPartialView forces the interleaving behind
// TestChaosSoak/distsort/seed=7: two kills, and a survivor that starts
// recovering while only the first is declared. Rank 1 dies at its first
// primitive. Rank 3's first primitive is held until survivor 2 has
// folded the one-failure view into its recovery (its acknowledged epoch
// moves), and only then dies. Rank 1's revival is held, in the hook the
// reviving survivor calls, until rank 2 is parked. A recovery that lets
// a survivor act on its partial view deadlocks here: released as soon as
// rank 1 is back, rank 2 sends its first rebuild message to rank 3 while
// rank 3's mailbox is still dead, and the message is discarded.
func TestRecoveryRespawnPartialView(t *testing.T) {
	defer leakcheck.Snapshot(t, poolGauge()).Check()
	const np, survivor = 4, 2
	var w atomic.Pointer[World]
	inj := &testInjector{atCall: func(r, call int) bool {
		if call != 1 {
			return false
		}
		if r == 3 {
			spinUntil(&w, func(wd *World) bool { return wd.mailboxes[survivor].failAck.Load() > 0 })
		}
		return r == 1 || r == 3
	}}
	hook := lifecycleFunc(func(e LifecycleEvent) {
		if e.Kind == LifeRecovery && e.Rank == 1 && e.Detail == "rank respawned at full width" {
			spinUntil(&w, func(wd *World) bool { return parked(wd, survivor) })
		}
	})
	var mu sync.Mutex
	finals := make(map[int][]int64)
	sum := respawnSum(t, 2, finals, &mu)
	err := Run(np, func(c *Comm) error {
		w.CompareAndSwap(nil, c.world)
		return sum(c)
	}, WithInjector(inj), WithHook(hook))
	if err == nil || !errors.Is(err, ErrRankKilled) {
		t.Fatalf("Run = %v, want the killed ranks' ErrRankKilled", err)
	}
	if errors.Is(err, ErrRankFailed) || errors.Is(err, ErrDeadlock) || errors.Is(err, ErrAborted) {
		t.Fatalf("recovery left residual errors: %v", err)
	}
	checkRespawnSum(t, finals, np)
}

// TestRecoveryHeartbeatStall reproduces what declared the live rank 2
// failed in TestChaosSoak/kmeans/seed=10/tcp: the heartbeat sender stalls
// while the monitor keeps running. Here rank 0 holds the link-latency
// pipe the sender's first delivery needs; on a loaded machine the
// scheduler or the OS does the same to the whole sender. Ranks 2 and 3
// are then killed one after the other, and rank 3's declaration marks a
// monitor pass in which the live ranks 0 and 1 have been silent at least
// as long as rank 3. A World knows its own live ranks are alive: only the
// two killed ranks may be declared.
func TestRecoveryHeartbeatStall(t *testing.T) {
	defer leakcheck.Snapshot(t, poolGauge()).Check()
	held, twoDeclared, threeDeclared := make(chan struct{}), make(chan struct{}), make(chan struct{})
	inj := &testInjector{atCall: func(r, call int) bool {
		switch {
		case r == 2 && call == 1:
			<-held
			return true
		case r == 3 && call == 1:
			<-twoDeclared
			return true
		}
		return false
	}}
	hook := lifecycleFunc(func(e LifecycleEvent) {
		if e.Kind != LifeFailure || !strings.HasPrefix(e.Detail, "rank declared failed") {
			return
		}
		switch e.Rank {
		case 2:
			close(twoDeclared)
		case 3:
			close(threeDeclared)
		}
	})
	err := Run(4, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			pipe := c.world.transport.(*latencyTransport).pipes[0]
			pipe.mu.Lock()
			close(held)
			<-threeDeclared
			got := c.FailedRanks()
			pipe.mu.Unlock()
			if fmt.Sprint(got) != "[2 3]" {
				return fmt.Errorf("failed ranks %v after a stalled heartbeat sender, want [2 3]", got)
			}
			return nil
		case 2, 3:
			return c.Barrier()
		}
		return nil
	}, WithInjector(inj), WithHook(hook), WithHeartbeat(40*time.Millisecond), WithLinkLatency(time.Millisecond))
	if err == nil || !errors.Is(err, ErrRankKilled) {
		t.Fatalf("Run = %v, want only the killed ranks' ErrRankKilled", err)
	}
	for _, line := range strings.Split(err.Error(), "\n") {
		if !strings.Contains(line, ErrRankKilled.Error()) {
			t.Errorf("unexpected world error: %s", line)
		}
	}
}
