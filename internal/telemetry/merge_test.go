package telemetry

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/faults"
	"repro/internal/mpi"
	"repro/internal/prof"
)

// imbalancedWorkload makes rank skew unmistakable: before each of three
// barriers, rank r sleeps r*25ms. The highest rank arrives last every
// time, so it blocks least — it is the straggler the others wait on.
func imbalancedWorkload(c *mpi.Comm) error {
	for i := 0; i < 3; i++ {
		time.Sleep(time.Duration(c.Rank()) * 25 * time.Millisecond)
		if err := c.Barrier(); err != nil {
			return err
		}
	}
	return nil
}

// leastBlocked is the profiler's straggler verdict over the same event
// stream: the rank with the least summed Blocked time, ties to the
// lower rank.
func leastBlocked(s prof.Summary) int {
	best := 0
	for r, b := range s.Blocked {
		if b < s.Blocked[best] {
			best = r
		}
	}
	return best
}

// TestGatherMergedStragglerAgreesWithProf is the acceptance check: the
// merged view's imbalance verdict must agree with the profiler's
// wait-state view of the same run, on both transports.
func TestGatherMergedStragglerAgreesWithProf(t *testing.T) {
	const np = 4
	for _, tc := range []struct {
		name string
		run  func(int, func(*mpi.Comm) error, ...mpi.Option) error
	}{
		{"channel", mpi.Run},
		{"tcp", mpi.RunTCP},
	} {
		t.Run(tc.name, func(t *testing.T) {
			set := NewMPISet(np)
			collector := prof.New()
			err := tc.run(np, imbalancedWorkload,
				mpi.WithHook(mpi.MultiHook(collector, set)), mpi.WithWatchdog(time.Minute))
			if err != nil {
				t.Fatal(err)
			}
			merged := set.Merge()
			if merged.Ranks != np {
				t.Fatalf("merged %d ranks, want %d", merged.Ranks, np)
			}

			straggler, _, imb := merged.Straggler()
			if straggler != np-1 {
				t.Errorf("telemetry straggler = rank %d, want %d (blocked: %v)",
					straggler, np-1, merged.BlockedSeconds())
			}
			if imb <= 0 {
				t.Errorf("imbalance = %g, want > 0", imb)
			}

			// The profiler's independent verdict over the same event stream.
			summary := prof.Summarize(collector.Events())
			if r := leastBlocked(summary); r != straggler {
				t.Errorf("prof blocked least on rank %d (%v), telemetry straggler is %d", r, summary.Blocked, straggler)
			}

			// Both views integrate the same Blocked durations of the same
			// events, and the merge adds no traffic of its own, so the
			// per-rank values agree to rounding.
			blocked := merged.BlockedSeconds()
			for r := 0; r < np; r++ {
				profSec := summary.Blocked[r].Seconds()
				if diff := profSec - blocked[r]; diff < -1e-9 || diff > 1e-9 {
					t.Errorf("rank %d blocked: telemetry %.9fs vs prof %.9fs", r, blocked[r], profSec)
				}
			}

			// Render paths: the table ranks mpi_blocked_seconds_total among
			// the imbalanced series, and the straggler report names the rank.
			if table := merged.Table(10); !strings.Contains(table, "mpi_blocked_seconds_total") {
				t.Errorf("merged table missing blocked series:\n%s", table)
			}
			if rep := merged.StragglerReport(); !strings.Contains(rep, "rank 3") {
				t.Errorf("straggler report does not name rank 3:\n%s", rep)
			}
		})
	}
}

// TestGatherMergedResilienceCounters: the reliability and recovery
// counters must be visible end to end — scraped from the process
// registry and folded into the post-run merge. A lossy run over
// reliable TCP links must move the wire counters (drops force
// retransmits; every data frame is eventually acked; corruption is
// CRC-rejected and counted), and a kill + RunResilient run must move
// the respawn counter.
func TestGatherMergedResilienceCounters(t *testing.T) {
	const np = 4
	resilience := []string{
		"mpi_retransmits_total", "mpi_acks_total",
		"mpi_frames_dropped_total", "mpi_frames_corrupt_total",
		"mpi_respawns_total",
	}

	set := NewMPISet(np)
	before := mpi.ReliabilityStats()
	err := mpi.RunTCP(np, func(c *mpi.Comm) error {
		buf := make([]float64, 64)
		for it := 0; it < 30; it++ {
			buf[0] = float64(it)
			if err := mpi.AllreduceInto(c, buf, mpi.OpSum); err != nil {
				return err
			}
		}
		return nil
	},
		mpi.WithReliableLinks(),
		mpi.WithInjector(faults.MustParse("frame=drop:prob=0.03:seed=11,frame=corrupt:prob=0.03:seed=12")),
		mpi.WithHook(set), mpi.WithWatchdog(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	merged := set.Merge()
	for _, name := range resilience {
		if merged.Lookup(name) == nil {
			t.Errorf("merged view is missing %s", name)
		}
	}
	after := mpi.ReliabilityStats().Sub(before)
	if after.FramesDropped == 0 || after.FramesCorrupt == 0 {
		t.Fatalf("injector did not fire (deltas %+v); the assertions below would be vacuous", after)
	}
	wantMoved := map[string]int64{
		"mpi_retransmits_total":    before.Retransmits,
		"mpi_acks_total":           before.AcksSent,
		"mpi_frames_dropped_total": before.FramesDropped,
		"mpi_frames_corrupt_total": before.FramesCorrupt,
	}
	for name, floor := range wantMoved {
		s := merged.Lookup(name)
		if s == nil {
			continue // reported above
		}
		if s.Value[0] <= float64(floor) {
			t.Errorf("%s = %v in the merge, want > %d (the pre-run cumulative value)", name, s.Value[0], floor)
		}
	}

	// Kill a rank and recover at full width: the respawn counter —
	// already shown present in the merge above — must advance.
	respawnsBefore := mpi.ReliabilityStats().Respawns
	err = mpi.Run(np, func(c *mpi.Comm) error {
		return c.RunResilient(func(rc *mpi.Comm, restart bool) error {
			for i := 0; i < 6; i++ {
				if err := rc.Barrier(); err != nil {
					return err
				}
			}
			return nil
		})
	}, mpi.WithInjector(faults.MustParse("rank=1:call=2:kill")), mpi.WithHook(set), mpi.WithWatchdog(time.Minute))
	if !errors.Is(err, mpi.ErrRankKilled) {
		t.Fatalf("kill world returned %v, want the killed rank's ErrRankKilled", err)
	}
	if got := mpi.ReliabilityStats().Respawns; got <= respawnsBefore {
		t.Errorf("mpi_respawns_total = %d after a kill + RunResilient, want > %d", got, respawnsBefore)
	}
	// And the scrape path the /metrics endpoint serves: all five series
	// render from the process registry.
	var text strings.Builder
	if err := WritePrometheus(&text, set.ProcessRegistry()); err != nil {
		t.Fatal(err)
	}
	for _, name := range resilience {
		if !strings.Contains(text.String(), name) {
			t.Errorf("process registry text exposition is missing %s", name)
		}
	}
}

// TestMergeReadsRegistries pins what the merge reads: each rank's
// counters in its own column, a histogram's count and sum, and the
// process-wide resilience counters repeated in every column.
func TestMergeReadsRegistries(t *testing.T) {
	set := NewMPISet(3)
	set.Event(mpi.Event{Rank: 0, Prim: mpi.PrimSend, Bytes: 64, Dur: 2 * time.Microsecond, Blocked: time.Microsecond})
	set.Event(mpi.Event{Rank: 0, Prim: mpi.PrimSend, Bytes: 64, Dur: 4 * time.Microsecond})
	set.Event(mpi.Event{Rank: 2, Prim: mpi.PrimRecv, Bytes: 128, Dur: 3 * time.Microsecond, Blocked: 3 * time.Microsecond})
	m := set.Merge()
	if m.Ranks != 3 {
		t.Fatalf("merged %d ranks, want 3", m.Ranks)
	}
	for key, want := range map[string][]float64{
		"mpi_calls_total{prim=MPI_Send}":     {2, 0, 0},
		"mpi_bytes_total{prim=MPI_Recv}":     {0, 0, 128},
		"mpi_latency_seconds{prim=MPI_Send}": {2, 0, 0},
		"mpi_blocked_seconds_total":          {1e-6, 0, 3e-6},
	} {
		s := m.Lookup(key)
		if s == nil {
			t.Errorf("merge is missing %s", key)
			continue
		}
		if fmt.Sprint(s.Value) != fmt.Sprint(want) {
			t.Errorf("%s = %v, want %v", key, s.Value, want)
		}
	}
	if h := m.Lookup("mpi_latency_seconds{prim=MPI_Send}"); h != nil && h.Sum[0] != 6e-6 {
		t.Errorf("MPI_Send latency sum on rank 0 = %g s, want 6e-06", h.Sum[0])
	}
	s := m.Lookup("mpi_retransmits_total")
	if s == nil {
		t.Fatal("merge is missing mpi_retransmits_total")
	}
	if s.Value[0] != s.Value[1] || s.Value[1] != s.Value[2] {
		t.Errorf("process-wide counter differs across columns: %v", s.Value)
	}
	if m.Lookup("mpi_pool_hits_total") != nil {
		t.Error("merge holds a process series outside the resilience set")
	}
}

// TestStragglerKmeansImbalance is the EXPERIMENTS.md mini-study: a
// data-parallel kmeans iteration loop where rank 0 holds 4× the points
// of every other rank. Each iteration ends in an Allreduce of the
// partial centroid sums, so the light ranks block on the heavy one —
// and the straggler gauges must finger rank 0.
func TestStragglerKmeansImbalance(t *testing.T) {
	const (
		np    = 4
		k     = 8
		dim   = 4
		iters = 12
		base  = 3000 // points per light rank; rank 0 holds 4× this
	)
	set := NewMPISet(np)
	collector := prof.New()
	err := mpi.Run(np, func(c *mpi.Comm) error {
		n := base
		if c.Rank() == 0 {
			n = 4 * base
		}
		pts, _ := data.GaussianMixture(n, dim, k, 0.5, 10, int64(42+c.Rank()))
		// Shared deterministic centroids so every rank reduces the same
		// k×dim matrix.
		cent, _ := data.GaussianMixture(k, dim, k, 0.5, 10, 7)
		sums := make([]float64, k*dim+k)
		for it := 0; it < iters; it++ {
			for i := range sums {
				sums[i] = 0
			}
			// Assignment: the O(n·k·dim) compute phase — 4× heavier on rank 0.
			for i := 0; i < pts.N(); i++ {
				p := pts.At(i)
				best, bestD := 0, data.SquaredDistance(p, cent.At(0))
				for j := 1; j < k; j++ {
					if d := data.SquaredDistance(p, cent.At(j)); d < bestD {
						best, bestD = j, d
					}
				}
				for d := 0; d < dim; d++ {
					sums[best*dim+d] += p[d]
				}
				sums[k*dim+best]++
			}
			// Global centroid update: the collective the light ranks wait in.
			if err := mpi.AllreduceInto(c, sums, mpi.OpSum); err != nil {
				return err
			}
			for j := 0; j < k; j++ {
				if cnt := sums[k*dim+j]; cnt > 0 {
					for d := 0; d < dim; d++ {
						cent.Coords[j*dim+d] = sums[j*dim+d] / cnt
					}
				}
			}
		}
		return nil
	}, mpi.WithHook(mpi.MultiHook(collector, set)), mpi.WithWatchdog(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	merged := set.Merge()
	straggler, _, imb := merged.Straggler()
	if straggler != 0 {
		t.Fatalf("straggler = rank %d, want 0 (blocked: %v)", straggler, merged.BlockedSeconds())
	}
	if r := leastBlocked(prof.Summarize(collector.Events())); r != 0 {
		t.Fatalf("prof blocked least on rank %d, which does not agree", r)
	}
	t.Logf("straggler gauges on imbalanced kmeans: blocked=%v imbalance=%.1f%%",
		merged.BlockedSeconds(), imb*100)
	t.Logf("allreduce latency per rank (count): %v", merged.Lookup(`mpi_latency_seconds{prim=MPI_Allreduce}`).Value)
}

// TestBalancedKmeansControl is the study's control arm: equal shares on
// every rank should show a far smaller blocked-time spread.
func TestBalancedKmeansControl(t *testing.T) {
	const np = 4
	set := NewMPISet(np)
	err := mpi.Run(np, func(c *mpi.Comm) error {
		buf := make([]float64, 64)
		for it := 0; it < 12; it++ {
			// Equal synthetic compute on every rank.
			x := 0.0
			for i := 0; i < 200000; i++ {
				x += float64(i % 7)
			}
			buf[0] = x
			if err := mpi.AllreduceInto(c, buf, mpi.OpSum); err != nil {
				return err
			}
		}
		return nil
	}, mpi.WithHook(set), mpi.WithWatchdog(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	_, _, imb := set.Merge().Straggler()
	t.Logf("balanced kmeans: blocked-time spread %.1f%%", imb*100)
}
