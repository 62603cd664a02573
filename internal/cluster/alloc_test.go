//go:build !race

package cluster

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/perfmodel"
)

// TestAllocSchedulePass pins the allocation-free scheduling pass: a pass
// that starts no job allocates nothing, however deep the queue it scans
// and whether or not it has to compute the head's reservation. (The
// race detector's instrumentation allocates, so these run without it. The
// whole-drain budgets are internal/workload's TestAllocSchedulePassDrain.)
func TestAllocSchedulePass(t *testing.T) {
	cores := perfmodel.DefaultMachine().CoresPerNode
	const depth = 64
	submit := func(t *testing.T, c *Cluster, spec JobSpec, want JobState) {
		t.Helper()
		id, err := c.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if j, _ := c.Status(id); j.State != want {
			t.Fatalf("setup: job %q is %v, want %v", spec.Name, j.State, want)
		}
	}

	// Submit into a full queue behind a blocked head. With no core free
	// every scanned job is rejected outright; with one core free every
	// scanned job fits but would outlast the head's reservation, so the
	// pass also replays the releases.
	for _, tc := range []struct {
		name      string
		freeCores int
	}{
		{"submit/saturated", 0},
		{"submit/one core free", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(t, 2)
			c.SetBackfillLimit(depth)
			submit(t, c, JobSpec{Name: "full", Tasks: cores, BaseTime: time.Hour, TimeLimit: time.Hour}, Running)
			submit(t, c, JobSpec{Name: "rest", Tasks: cores - tc.freeCores, BaseTime: time.Hour, TimeLimit: time.Hour}, Running)
			submit(t, c, JobSpec{Name: "head", Tasks: 2, BaseTime: time.Hour, TimeLimit: time.Hour}, Pending)
			held := JobSpec{Name: "held", Tasks: 1, BaseTime: 2 * time.Hour, TimeLimit: 2 * time.Hour}
			for i := 1; i < depth; i++ {
				submit(t, c, held, Pending)
			}
			// The Job record, plus the id index's and the queue's
			// amortised growth.
			if avg := testing.AllocsPerRun(100, func() { c.Submit(held) }); avg > 2 {
				t.Fatalf("Submit into a %d-deep queue allocates %.0f times, want <= 2", depth, avg)
			}
			if len(c.running) != 2 || len(c.order) != depth+101 {
				t.Fatalf("%d running, %d pending: the measured submits started something", len(c.running), len(c.order))
			}
		})
	}

	// With retention off, a submission takes an evicted record: jobs that
	// once filled the queue were cancelled, so the table and the queue
	// have room and every measured Submit finds a record to reuse.
	t.Run("submit/reused record", func(t *testing.T) {
		c := newTestCluster(t, 2)
		c.SetBackfillLimit(depth)
		c.SetRetainFinished(false)
		submit(t, c, JobSpec{Name: "full", Tasks: 2 * cores, BaseTime: time.Hour, TimeLimit: time.Hour}, Running)
		held := JobSpec{Name: "held", Tasks: 1, BaseTime: 2 * time.Hour, TimeLimit: 2 * time.Hour}
		const runs = 100
		var ids []int
		for i := 0; i < 2*runs; i++ {
			id, err := c.Submit(held)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		for _, id := range ids {
			if err := c.Cancel(id); err != nil {
				t.Fatal(err)
			}
		}
		if avg := testing.AllocsPerRun(runs, func() { c.Submit(held) }); avg != 0 {
			t.Fatalf("Submit onto a reused record allocates %.0f times, want 0", avg)
		}
		if len(c.order) != runs+1 || len(c.free) != runs-1 {
			t.Fatalf("%d pending, %d free records: the measured submits did not all queue on reused records", len(c.order), len(c.free))
		}
	})

	// A Step that finishes one job and starts none: one-task jobs end a
	// minute apart while a queue of full-width jobs waits for all of them,
	// and a one-task job that fits the freed cores is held because it
	// would outlast the reservation.
	t.Run("step", func(t *testing.T) {
		c := newTestCluster(t, 2)
		c.SetBackfillLimit(depth)
		c.SetRetainFinished(false)
		for i := 1; i <= 2*cores; i++ {
			d := time.Duration(i) * time.Minute
			submit(t, c, JobSpec{Name: "short", Tasks: 1, BaseTime: d, TimeLimit: 2 * d}, Running)
		}
		submit(t, c, JobSpec{Name: "head", Tasks: 2 * cores, BaseTime: time.Hour, TimeLimit: time.Hour}, Pending)
		submit(t, c, JobSpec{Name: "held", Tasks: 1, BaseTime: 10 * time.Hour, TimeLimit: 10 * time.Hour}, Pending)
		for i := 2; i < depth; i++ {
			submit(t, c, JobSpec{Name: "wide", Tasks: 2 * cores, BaseTime: time.Hour, TimeLimit: time.Hour}, Pending)
		}
		const runs = 50
		if avg := testing.AllocsPerRun(runs, func() { c.Step() }); avg != 0 {
			t.Fatalf("a Step that starts nothing allocates %.0f times, want 0", avg)
		}
		if st := c.Stats(); st.Completed != runs+1 || len(c.order) != depth {
			t.Fatalf("%d completed, %d pending: want %d steps that each finished one job and started none",
				st.Completed, len(c.order), runs+1)
		}
	})
}

// TestAllocRetainedDrainBytes bounds the bytes a drain allocates per job
// with every record retained (BenchmarkClusterDrain's jobs=100k row). It
// reads 299: the record (256-B size class), its 16-B node array and ~27 B
// for its slot in the id index, which doubles as it grows. A record past
// 256 B moves to the 288-B class and fails it, and so does an index grown
// by append's quarter steps (317).
func TestAllocRetainedDrainBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("drains 100k jobs")
	}
	const jobs, budget = 100_000, 310 // bytes per job
	arrivals := benchWorkload(jobs)
	c := newTestCluster(t, 8)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, a := range arrivals {
		c.RunUntil(a.at)
		if _, err := c.Submit(a.spec); err != nil {
			t.Fatal(err)
		}
	}
	c.Drain()
	runtime.ReadMemStats(&after)
	if st := c.Stats(); st.Completed+st.TimedOut != jobs || c.LiveJobs() != jobs {
		t.Fatalf("%d completed, %d timed out, %d records held; want all %d finished and held",
			st.Completed, st.TimedOut, c.LiveJobs(), jobs)
	}
	perJob := float64(after.TotalAlloc-before.TotalAlloc) / jobs
	t.Logf("retained drain: %.0f B/job", perJob)
	if perJob > budget {
		t.Errorf("retained drain allocates %.0f B/job, budget %d", perJob, budget)
	}
}
