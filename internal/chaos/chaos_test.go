package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/data"
	"repro/internal/faults"
	"repro/internal/leakcheck"
	"repro/internal/modules/ddp"
	"repro/internal/modules/distsort"
	"repro/internal/modules/kmeans"
	"repro/internal/mpi"
)

const np = 4

func poolGauge() leakcheck.Gauge {
	return leakcheck.Gauge{
		Name: "mpi_pool_bytes_in_flight",
		Read: func() int64 { return mpi.PoolStats().BytesInFlight },
	}
}

// runWorld executes body on the selected transport with the plan's
// faults injected. A faulted world runs with reliable links (the
// harness's frame noise is only licensed there) and a watchdog so a
// chaotic hang fails the test instead of wedging it; a TCP world adds a
// heartbeat for kill detection, which the channel transport declares
// synchronously.
func runWorld(tcp bool, spec string, body func(*mpi.Comm) error) error {
	var opts []mpi.Option
	if spec != "" {
		opts = append(opts,
			mpi.WithInjector(faults.MustParse(spec)),
			mpi.WithReliableLinks(),
			mpi.WithWatchdog(90*time.Second),
		)
	}
	if tcp {
		opts = append(opts, mpi.WithHeartbeat(150*time.Millisecond))
		return mpi.RunTCP(np, body, opts...)
	}
	return mpi.Run(np, body, opts...)
}

// Module runners: each executes its workload under a fault spec and
// returns every completing rank's result fingerprint. The fingerprints
// are exact values (not hashes), so a divergence shows as a diff.

type kmeansSig struct {
	Centroids data.Points
	Inertia   float64
}

func runKmeans(tcp bool, spec string) (map[int]any, error) {
	pts, _ := data.GaussianMixture(256, 2, 4, 1.0, 50, 21)
	cfg := kmeans.Config{K: 4, MaxIter: 20, Seed: 9, Checkpoint: ckpt.NewMem(), CheckpointEvery: 3}
	var mu sync.Mutex
	out := make(map[int]any)
	err := runWorld(tcp, spec, func(c *mpi.Comm) error {
		r, _, _, err := kmeans.DistributedResilient(c, pts, cfg)
		if err != nil {
			return err
		}
		mu.Lock()
		out[c.Rank()] = kmeansSig{Centroids: r.Centroids, Inertia: r.Inertia}
		mu.Unlock()
		return nil
	})
	return out, err
}

func runDistsort(tcp bool, spec string) (map[int]any, error) {
	rng := rand.New(rand.NewSource(77))
	parts := make([][]float64, np)
	for r := range parts {
		parts[r] = make([]float64, 400)
		for i := range parts[r] {
			parts[r][i] = rng.Float64() * 1000
		}
	}
	cks := make([]ckpt.Checkpointer, np)
	for r := range cks {
		cks[r] = ckpt.NewMem()
	}
	var mu sync.Mutex
	out := make(map[int]any)
	err := runWorld(tcp, spec, func(c *mpi.Comm) error {
		mine, _, err := distsort.SortResilient(c, distsort.EqualWidth,
			func(rank int) []float64 { return parts[rank] },
			func(rank int) ckpt.Checkpointer { return cks[rank] })
		if err != nil {
			return err
		}
		mu.Lock()
		out[c.Rank()] = mine
		mu.Unlock()
		return nil
	})
	return out, err
}

type ddpSig struct {
	FinalFlat []float64
	Losses    []float64
}

func runDDP(tcp bool, spec string) (map[int]any, error) {
	cfg := ddp.Config{Layers: []int{8, 16, 4}, BatchPerRank: 2, Steps: 6, Seed: 5}
	var mu sync.Mutex
	out := make(map[int]any)
	err := runWorld(tcp, spec, func(c *mpi.Comm) error {
		r, err := ddp.Train(c, cfg)
		if err != nil {
			return err
		}
		mu.Lock()
		out[c.Rank()] = ddpSig{FinalFlat: r.FinalFlat, Losses: r.Losses}
		mu.Unlock()
		return nil
	})
	return out, err
}

// TestChaosSoak is the acceptance harness: for every seed in the sweep
// and every cell of the module × transport matrix, derive a randomized
// fault plan (kills × drops × dups × corrupt × reorder), run the module
// through it, and require one of exactly two outcomes — every surviving
// rank's result bit-identical to the clean reference, or the one typed
// error the plan licenses (the killed rank's own ErrRankKilled). Any
// deadlock, abort, corruption-induced divergence, goroutine leak, or
// pool-buffer leak fails the seed.
func TestChaosSoak(t *testing.T) {
	seeds, err := seedSweep()
	if err != nil {
		t.Fatal(err)
	}
	modules := []struct {
		name       string
		allowKills bool // module has a respawn-capable wrapper
		maxCall    int  // latest call a kill may target and still fire
		run        func(tcp bool, spec string) (map[int]any, error)
		// pinned seeds run whatever the sweep: their plans once lost a
		// recovery race (two kills in flight, EXPERIMENTS.md "One
		// membership view for recovery").
		pinned []int64
	}{
		{"kmeans", true, 8, runKmeans, []int64{10}},    // rank=3:call=1:kill,rank=1:call=4:kill
		{"distsort", true, 3, runDistsort, []int64{7}}, // rank=3:call=3:kill,rank=1:call=2:kill
		{"ddp", false, 0, runDDP, nil},                 // wire noise only: Train has no kill recovery
	}
	for _, m := range modules {
		clean, err := m.run(false, "")
		if err != nil {
			t.Fatalf("%s: clean reference run: %v", m.name, err)
		}
		if len(clean) != np {
			t.Fatalf("%s: clean reference produced %d results, want %d", m.name, len(clean), np)
		}
		sweep := slices.Clone(seeds)
		for _, seed := range m.pinned {
			if !slices.Contains(sweep, seed) {
				sweep = append(sweep, seed)
			}
		}
		for _, seed := range sweep {
			plan := derive(seed, np, m.maxCall, m.allowKills)
			spec := plan.Spec()
			for _, tcp := range []bool{false, true} {
				transport := "channel"
				if tcp {
					transport = "tcp"
				}
				t.Run(fmt.Sprintf("%s/seed=%d/%s", m.name, seed, transport), func(t *testing.T) {
					defer leakcheck.Snapshot(t, poolGauge()).Check()
					got, err := m.run(tcp, spec)
					if len(plan.Kills) > 0 {
						if err == nil || !errors.Is(err, mpi.ErrRankKilled) {
							t.Fatalf("plan %q: world error %v, want the killed rank's ErrRankKilled", spec, err)
						}
					} else if err != nil {
						t.Fatalf("plan %q: world error %v, want clean completion", spec, err)
					}
					if errors.Is(err, mpi.ErrDeadlock) || errors.Is(err, mpi.ErrAborted) {
						t.Fatalf("plan %q: chaos surfaced as deadlock/abort: %v", spec, err)
					}
					if want := np - len(plan.Kills); len(got) != want {
						t.Errorf("plan %q: %d ranks completed, want %d", spec, len(got), want)
					}
					for r, v := range got {
						if !reflect.DeepEqual(v, clean[r]) {
							t.Errorf("plan %q: rank %d result diverged from the clean reference", spec, r)
						}
					}
				})
			}
		}
	}
}

// TestDeriveDeterministic: the whole harness rests on seed → plan being
// a pure function; two derivations of the same seed must agree exactly.
func TestDeriveDeterministic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a := derive(seed, np, 8, true)
		b := derive(seed, np, 8, true)
		if !reflect.DeepEqual(a, b) || a.Spec() != b.Spec() {
			t.Fatalf("seed %d derived two different plans:\n%+v\n%+v", seed, a, b)
		}
		if a.Spec() == "" {
			t.Fatalf("seed %d derived a fault-free plan", seed)
		}
	}
}
