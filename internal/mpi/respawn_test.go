package mpi

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

// respawnSum is the full-width recovery scenario: every rank contributes
// rank+1 to an Allreduce. When the injected kill fires, survivors
// observe RankFailedError and RespawnAndRestore; the replacement rank
// "restores" (here: recomputes its contribution — real modules load a
// checkpoint) and the sum completes over the original width. finals
// records each rank's post-recovery result.
func respawnSum(t *testing.T, _ int, finals map[int][]int64, mu *sync.Mutex) func(*Comm) error {
	record := func(rank int, res []int64) {
		mu.Lock()
		finals[rank] = res
		mu.Unlock()
	}
	contribute := func(rc *Comm) error {
		res, err := Allreduce(rc, []int64{int64(rc.Rank() + 1)}, OpSum)
		if err != nil {
			return err
		}
		record(rc.Rank(), res)
		return nil
	}
	return func(c *Comm) error {
		err := c.Barrier()
		if errors.Is(err, ErrRankKilled) {
			return err // the crashed rank stays silent
		}
		if err == nil {
			return errors.New("survivor barrier unexpectedly succeeded")
		}
		if !errors.Is(err, ErrRankFailed) {
			return err
		}
		rc, err := c.RespawnAndRestore(contribute)
		if err != nil {
			return err
		}
		return contribute(rc)
	}
}

func checkRespawnSum(t *testing.T, finals map[int][]int64, np int) {
	t.Helper()
	want := int64(np * (np + 1) / 2)
	if len(finals) != np {
		t.Fatalf("got results from %d ranks, want %d: %v", len(finals), np, finals)
	}
	for r, res := range finals {
		if len(res) != 1 || res[0] != want {
			t.Errorf("rank %d: post-respawn sum = %v, want [%d]", r, res, want)
		}
	}
}

// TestRespawnChannel: mid-run kill, then recovery at full width on the
// in-process transport — the acceptance-criteria scenario in miniature.
func TestRespawnChannel(t *testing.T) {
	defer leakcheck.Snapshot(t, poolGauge()).Check()
	before := ReliabilityStats()
	const np = 4
	var mu sync.Mutex
	finals := make(map[int][]int64)
	err := Run(np, respawnSum(t, 1, finals, &mu), WithInjector(killAtCall(2, 1)))
	if err == nil || !errors.Is(err, ErrRankKilled) {
		t.Fatalf("Run = %v, want the killed rank's ErrRankKilled", err)
	}
	if errors.Is(err, ErrRankFailed) || errors.Is(err, ErrDeadlock) || errors.Is(err, ErrAborted) {
		t.Fatalf("recovery left residual errors: %v", err)
	}
	checkRespawnSum(t, finals, np)
	if got := ReliabilityStats().Sub(before).Respawns; got != 1 {
		t.Errorf("Respawns delta = %d, want 1", got)
	}
}

// TestRespawnTCP: same recovery over real sockets, where the failure is
// declared by heartbeat silence rather than synchronously.
func TestRespawnTCP(t *testing.T) {
	defer leakcheck.Snapshot(t, poolGauge()).Check()
	before := ReliabilityStats()
	const np = 4
	var mu sync.Mutex
	finals := make(map[int][]int64)
	err := RunTCP(np, respawnSum(t, 1, finals, &mu),
		WithInjector(killAtCall(1, 1)), WithHeartbeat(100*time.Millisecond))
	if err == nil || !errors.Is(err, ErrRankKilled) {
		t.Fatalf("RunTCP = %v, want the killed rank's ErrRankKilled", err)
	}
	checkRespawnSum(t, finals, np)
	if got := ReliabilityStats().Sub(before).Respawns; got != 1 {
		t.Errorf("Respawns delta = %d, want 1", got)
	}
}

// TestRespawnTCPReliable: kill + respawn on a lossy reliable mesh — both
// tentpole layers active at once.
func TestRespawnTCPReliable(t *testing.T) {
	defer leakcheck.Snapshot(t, poolGauge()).Check()
	const np = 4
	var mu sync.Mutex
	finals := make(map[int][]int64)
	inj := &testInjector{
		atCall:  func(r, call int) bool { return r == 3 && call == 1 },
		atFrame: newLossyInjector(7, 0.03, 0.01, 0.01, 0).AtFrame,
	}
	err := RunTCP(np, respawnSum(t, 1, finals, &mu),
		inj2opts(inj, WithReliableLinks(), WithHeartbeat(200*time.Millisecond))...)
	if err == nil || !errors.Is(err, ErrRankKilled) {
		t.Fatalf("RunTCP = %v, want the killed rank's ErrRankKilled", err)
	}
	checkRespawnSum(t, finals, np)
}

// inj2opts prepends a WithInjector option.
func inj2opts(in Injector, opts ...Option) []Option {
	return append([]Option{WithInjector(in)}, opts...)
}

// TestRespawnTwoRanks: two simultaneous kills revived in one rebuild.
func TestRespawnTwoRanks(t *testing.T) {
	defer leakcheck.Snapshot(t, poolGauge()).Check()
	before := ReliabilityStats()
	const np = 5
	var mu sync.Mutex
	finals := make(map[int][]int64)
	inj := &testInjector{atCall: func(r, call int) bool {
		return (r == 1 || r == 3) && call == 1
	}}
	err := Run(np, respawnSum(t, 2, finals, &mu), WithInjector(inj))
	if err == nil || !errors.Is(err, ErrRankKilled) {
		t.Fatalf("Run = %v, want killed ranks' ErrRankKilled", err)
	}
	checkRespawnSum(t, finals, np)
	if got := ReliabilityStats().Sub(before).Respawns; got != 2 {
		t.Errorf("Respawns delta = %d, want 2", got)
	}
}

// TestRespawnNoFailure: calling RespawnAndRestore with nothing failed is
// a usage error, not a hang.
func TestRespawnNoFailure(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		_, err := c.RespawnAndRestore(func(*Comm) error { return nil })
		if err == nil {
			return errors.New("RespawnAndRestore accepted a world with no failures")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRespawnCountersMergeReady: the respawn counter is visible through
// the exported accessor the telemetry layer snapshots.
func TestRespawnCountersMergeReady(t *testing.T) {
	if ReliabilityStats().Respawns < 0 {
		t.Fatal("Respawns must be non-negative")
	}
}
