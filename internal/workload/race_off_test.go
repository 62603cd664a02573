//go:build !race

package workload

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/perfmodel"
)

// TestMillionJobDrain pins the tentpole acceptance criterion: a
// generated million-job workload streams through the event-heap
// scheduler inside ordinary test time, with memory bounded by the
// in-flight set. (Race-instrumented builds skip it — the detector's
// constant factor would dominate the measurement, and the simulator is
// single-threaded anyway.)
func TestMillionJobDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("streams 1M jobs")
	}
	spec := MustParse("poisson:2500/h;runtime=exp:60s,30m;tasks=fixed:4")
	c, err := cluster.New(8, perfmodel.DefaultMachine())
	if err != nil {
		t.Fatal(err)
	}
	c.SetRetainFinished(false)
	c.SetBackfillLimit(DefaultBackfillLimit)

	const jobs = 1_000_000
	start := time.Now()
	res, err := Run(c, NewGenerator(spec, 1), jobs)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)

	if res.Stats.Jobs != jobs || res.Stats.Completed != jobs {
		t.Fatalf("stats = %+v, want %d submitted and completed", res.Stats, jobs)
	}
	if res.PeakLive > jobs/100 {
		t.Errorf("peak live jobs = %d; memory not bounded by in-flight set", res.PeakLive)
	}
	if c.LiveJobs() != 0 {
		t.Errorf("%d jobs retained after drain", c.LiveJobs())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Errorf("invariants violated after 1M jobs: %v", err)
	}
	t.Logf("1M jobs in %v (%.0f events/sec, peak live %d)",
		elapsed.Round(time.Millisecond), float64(res.Events)/elapsed.Seconds(), res.PeakLive)
}

// TestAllocSchedulePassDrain budgets the two bench drains' allocations
// per job. A drained job costs no allocation of its own: its name is cut
// from a block shared with the next arrivals, with retention off the
// cluster reuses evicted records with their node arrays, and the
// scheduling pass itself allocates nothing, so the knee's deep queue
// costs no more per job than the stream's trivial one. The budgets leave
// room for one name block per 256 jobs and the amortised growth of the
// queue, the running set, the event heap and the pool of records.
func TestAllocSchedulePassDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("streams 240k jobs")
	}
	for _, tc := range []struct {
		drain  drainCase
		budget float64 // allocations per job
	}{
		{streamDrain, 0.05},
		{kneeDrain, 0.05},
	} {
		allocs := testing.AllocsPerRun(1, func() {
			if _, err := tc.drain.run(1); err != nil {
				t.Fatal(err)
			}
		})
		perJob := allocs / float64(tc.drain.jobs)
		t.Logf("%s drain: %.2f allocs/job", tc.drain.name, perJob)
		if perJob > tc.budget {
			t.Errorf("%s drain: %.2f allocs/job, budget %g", tc.drain.name, perJob, tc.budget)
		}
	}
}
