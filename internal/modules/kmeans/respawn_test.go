package kmeans

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/data"
	"repro/internal/faults"
	"repro/internal/mpi"
)

// respawnRun executes DistributedResilient under the given fault plan
// and returns each surviving rank's result.
func respawnRun(t *testing.T, np int, pts data.Points, cfg Config, spec string) map[int]Result {
	t.Helper()
	var mu sync.Mutex
	out := make(map[int]Result)
	err := mpi.Run(np, func(c *mpi.Comm) error {
		r, _, _, err := DistributedResilient(c, pts, cfg)
		if err != nil {
			return err
		}
		mu.Lock()
		out[c.Rank()] = r
		mu.Unlock()
		return nil
	}, mpi.WithInjector(faults.MustParse(spec)))
	if spec == "" {
		if err != nil {
			t.Fatalf("clean resilient run: %v", err)
		}
	} else if err == nil || !errors.Is(err, mpi.ErrRankKilled) {
		t.Fatalf("faulted run: %v, want the killed rank's ErrRankKilled", err)
	}
	return out
}

// TestRespawnBitIdentical is the acceptance-criteria scenario: kill a
// rank mid-run, respawn at full width, restore from the checkpoint, and
// the surviving ranks' centroids match an uninterrupted run bit for bit
// — with the recovery visible in the respawn counter.
func TestRespawnBitIdentical(t *testing.T) {
	const np = 4
	pts, _ := data.GaussianMixture(512, 2, 5, 1.0, 100, 31)
	cfg := Config{K: 5, MaxIter: 40, Seed: 2, Checkpoint: ckpt.NewMem(), CheckpointEvery: 3}

	clean := respawnRun(t, np, pts, cfg, "")
	if len(clean) != np {
		t.Fatalf("clean run returned %d results", len(clean))
	}

	before := mpi.ReliabilityStats()
	cfg.Checkpoint = ckpt.NewMem() // fresh store for the faulted run
	faulted := respawnRun(t, np, pts, cfg, "rank=2:call=10:kill")
	if got := mpi.ReliabilityStats().Sub(before).Respawns; got < 1 {
		t.Fatalf("Respawns delta = %d, want >= 1", got)
	}
	if len(faulted) != np-1 {
		t.Fatalf("faulted run returned %d results, want %d survivors", len(faulted), np-1)
	}
	for r, res := range faulted {
		if !reflect.DeepEqual(res.Centroids, clean[r].Centroids) {
			t.Errorf("rank %d: post-respawn centroids differ from the uninterrupted run", r)
		}
		if res.Inertia != clean[r].Inertia {
			t.Errorf("rank %d: inertia %v != clean %v", r, res.Inertia, clean[r].Inertia)
		}
	}
}

// TestRespawnRankZero: the checkpoint-owning rank itself dies; its
// replacement restores from the shared checkpointer.
func TestRespawnRankZero(t *testing.T) {
	const np = 4
	pts, _ := data.GaussianMixture(256, 2, 4, 1.0, 50, 17)
	cfg := Config{K: 4, MaxIter: 30, Seed: 5, Checkpoint: ckpt.NewMem(), CheckpointEvery: 4}

	clean := respawnRun(t, np, pts, cfg, "")
	cfg.Checkpoint = ckpt.NewMem()
	faulted := respawnRun(t, np, pts, cfg, "rank=0:call=4:kill")
	for r, res := range faulted {
		if !reflect.DeepEqual(res.Centroids, clean[r].Centroids) {
			t.Errorf("rank %d: centroids differ after losing rank 0", r)
		}
	}
}

// TestRespawnNoCheckpointer: without checkpointing the recovery
// recomputes from scratch — still bit-identical, just slower.
func TestRespawnNoCheckpointer(t *testing.T) {
	const np = 3
	pts, _ := data.GaussianMixture(240, 2, 3, 1.0, 40, 9)
	cfg := Config{K: 3, MaxIter: 25, Seed: 1}

	clean := respawnRun(t, np, pts, cfg, "")
	faulted := respawnRun(t, np, pts, cfg, "rank=1:call=4:kill")
	for r, res := range faulted {
		if !reflect.DeepEqual(res.Centroids, clean[r].Centroids) {
			t.Errorf("rank %d: centroids differ after checkpoint-less recovery", r)
		}
	}
}
