package cluster

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/perfmodel"
)

func newTestCluster(t *testing.T, nodes int) *Cluster {
	t.Helper()
	c, err := New(nodes, perfmodel.DefaultMachine())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, perfmodel.DefaultMachine()); err == nil {
		t.Fatal("zero nodes accepted")
	}
	bad := perfmodel.DefaultMachine()
	bad.CoresPerNode = 0
	if _, err := New(2, bad); err == nil {
		t.Fatal("invalid machine accepted")
	}
}

func TestSubmitValidation(t *testing.T) {
	c := newTestCluster(t, 2)
	if _, err := c.Submit(JobSpec{Name: "x", Tasks: 0, BaseTime: time.Second}); err == nil {
		t.Fatal("zero tasks accepted")
	}
	if _, err := c.Submit(JobSpec{Name: "x", Tasks: 1}); err == nil {
		t.Fatal("no runtime accepted")
	}
	if _, err := c.Submit(JobSpec{Name: "x", Tasks: 200, BaseTime: time.Second}); err == nil {
		t.Fatal("oversized job accepted")
	}
	if _, err := c.Submit(JobSpec{Name: "x", Tasks: 1, TasksPerNode: 64, BaseTime: time.Second}); err == nil {
		t.Fatal("tasks-per-node > cores accepted")
	}
}

func TestSingleJobLifecycle(t *testing.T) {
	c := newTestCluster(t, 1)
	id, err := c.Submit(JobSpec{Name: "hello", Tasks: 4, BaseTime: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := c.Status(id)
	if j.State != Running {
		t.Fatalf("job not started immediately: %v", j.State)
	}
	c.Drain()
	j, _ = c.Status(id)
	if j.State != Completed {
		t.Fatalf("state %v", j.State)
	}
	if got := j.EndTime - j.StartTime; got != 10*time.Second {
		t.Fatalf("runtime %v, want 10s", got)
	}
}

func TestFIFOOrderingWhenFull(t *testing.T) {
	c := newTestCluster(t, 1)
	a, _ := c.Submit(JobSpec{Name: "a", Tasks: 32, BaseTime: 10 * time.Second})
	b, _ := c.Submit(JobSpec{Name: "b", Tasks: 32, BaseTime: 5 * time.Second})
	ja, _ := c.Status(a)
	jb, _ := c.Status(b)
	if ja.State != Running || jb.State != Pending {
		t.Fatalf("states %v/%v", ja.State, jb.State)
	}
	c.Drain()
	jb, _ = c.Status(b)
	if jb.StartTime != 10*time.Second {
		t.Fatalf("b started at %v, want 10s", jb.StartTime)
	}
	if jb.EndTime != 15*time.Second {
		t.Fatalf("b ended at %v, want 15s", jb.EndTime)
	}
}

func TestSharedNodePacking(t *testing.T) {
	c := newTestCluster(t, 1)
	a, _ := c.Submit(JobSpec{Name: "a", Tasks: 16, BaseTime: 10 * time.Second})
	b, _ := c.Submit(JobSpec{Name: "b", Tasks: 16, BaseTime: 10 * time.Second})
	ja, _ := c.Status(a)
	jb, _ := c.Status(b)
	if ja.State != Running || jb.State != Running {
		t.Fatalf("fixed-duration jobs should co-run: %v/%v", ja.State, jb.State)
	}
	if c.Utilization() != 1.0 {
		t.Fatalf("utilization %v", c.Utilization())
	}
}

func TestExclusiveAllocationBlocksSharing(t *testing.T) {
	c := newTestCluster(t, 1)
	a, _ := c.Submit(JobSpec{Name: "a", Tasks: 4, Exclusive: true, BaseTime: 10 * time.Second})
	b, _ := c.Submit(JobSpec{Name: "b", Tasks: 4, BaseTime: time.Second})
	ja, _ := c.Status(a)
	jb, _ := c.Status(b)
	if ja.State != Running {
		t.Fatalf("exclusive job pending: %v", ja.State)
	}
	if jb.State != Pending {
		t.Fatalf("job b shared an exclusive node: %v", jb.State)
	}
	c.Drain()
	jb, _ = c.Status(b)
	if jb.StartTime != 10*time.Second {
		t.Fatalf("b started at %v", jb.StartTime)
	}
}

func TestTimeLimitKillsJob(t *testing.T) {
	c := newTestCluster(t, 1)
	id, _ := c.Submit(JobSpec{Name: "runaway", Tasks: 1, BaseTime: time.Hour, TimeLimit: time.Minute})
	c.Drain()
	j, _ := c.Status(id)
	if j.State != TimedOut {
		t.Fatalf("state %v, want TO", j.State)
	}
	if j.EndTime != time.Minute {
		t.Fatalf("killed at %v", j.EndTime)
	}
}

func TestCancelPendingAndRunning(t *testing.T) {
	c := newTestCluster(t, 1)
	a, _ := c.Submit(JobSpec{Name: "a", Tasks: 32, BaseTime: time.Hour})
	b, _ := c.Submit(JobSpec{Name: "b", Tasks: 32, BaseTime: time.Hour})
	if err := c.Cancel(b); err != nil {
		t.Fatal(err)
	}
	jb, _ := c.Status(b)
	if jb.State != Cancelled {
		t.Fatalf("pending cancel: %v", jb.State)
	}
	if err := c.Cancel(a); err != nil {
		t.Fatal(err)
	}
	ja, _ := c.Status(a)
	if ja.State != Cancelled {
		t.Fatalf("running cancel: %v", ja.State)
	}
	if c.Utilization() != 0 {
		t.Fatalf("cores leaked: %v", c.Utilization())
	}
	if err := c.Cancel(a); err == nil {
		t.Fatal("double cancel accepted")
	}
	if err := c.Cancel(999); err == nil {
		t.Fatal("unknown job cancelled")
	}
}

func TestEASYBackfill(t *testing.T) {
	// Node is busy until t=100 with 20 cores used. Head job wants 32
	// cores (must wait). A small job with a short time limit fits the
	// remaining 12 cores and finishes before t=100: backfill it now.
	c := newTestCluster(t, 1)
	long, _ := c.Submit(JobSpec{Name: "long", Tasks: 20, BaseTime: 100 * time.Second, TimeLimit: 100 * time.Second})
	head, _ := c.Submit(JobSpec{Name: "head", Tasks: 32, BaseTime: 10 * time.Second, TimeLimit: 10 * time.Second})
	fill, _ := c.Submit(JobSpec{Name: "fill", Tasks: 4, BaseTime: 30 * time.Second, TimeLimit: 30 * time.Second})
	jl, _ := c.Status(long)
	jh, _ := c.Status(head)
	jf, _ := c.Status(fill)
	if jl.State != Running {
		t.Fatalf("long %v", jl.State)
	}
	if jh.State != Pending {
		t.Fatalf("head should wait: %v", jh.State)
	}
	if jf.State != Running {
		t.Fatalf("fill should backfill: %v", jf.State)
	}
	c.Drain()
	jh, _ = c.Status(head)
	if jh.StartTime != 100*time.Second {
		t.Fatalf("head delayed by backfill: started %v, want 100s", jh.StartTime)
	}
}

func TestBackfillRefusesJobWithoutEstimate(t *testing.T) {
	c := newTestCluster(t, 1)
	c.Submit(JobSpec{Name: "long", Tasks: 20, BaseTime: 100 * time.Second, TimeLimit: 100 * time.Second})
	c.Submit(JobSpec{Name: "head", Tasks: 32, BaseTime: 10 * time.Second, TimeLimit: 10 * time.Second})
	fill, _ := c.Submit(JobSpec{Name: "nolimit", Tasks: 4, BaseTime: 5 * time.Second}) // no TimeLimit
	jf, _ := c.Status(fill)
	if jf.State != Pending {
		t.Fatalf("unestimated job backfilled: %v", jf.State)
	}
}

func TestBackfillRefusesDelayingHead(t *testing.T) {
	c := newTestCluster(t, 1)
	c.Submit(JobSpec{Name: "long", Tasks: 20, BaseTime: 100 * time.Second, TimeLimit: 100 * time.Second})
	c.Submit(JobSpec{Name: "head", Tasks: 32, BaseTime: 10 * time.Second, TimeLimit: 10 * time.Second})
	// Would finish at t=200 > head's start at t=100: no backfill.
	slow, _ := c.Submit(JobSpec{Name: "slow", Tasks: 4, BaseTime: 200 * time.Second, TimeLimit: 200 * time.Second})
	js, _ := c.Status(slow)
	if js.State != Pending {
		t.Fatalf("delaying backfill admitted: %v", js.State)
	}
}

func TestTerribleTwinsContention(t *testing.T) {
	// Two memory-bound jobs forced onto one node run ≈2× slower than
	// the same job alone — the co-scheduling lesson.
	kernel := perfmodel.MemoryBoundKernel("stream", 5e11, 0.1)

	solo := newTestCluster(t, 1)
	a, _ := solo.Submit(JobSpec{Name: "solo", Tasks: 10, Kernel: &kernel})
	solo.Drain()
	js, _ := solo.Status(a)
	soloTime := js.EndTime - js.StartTime

	twins := newTestCluster(t, 1)
	x, _ := twins.Submit(JobSpec{Name: "twin1", Tasks: 10, Kernel: &kernel})
	y, _ := twins.Submit(JobSpec{Name: "twin2", Tasks: 10, Kernel: &kernel})
	jx, _ := twins.Status(x)
	jy, _ := twins.Status(y)
	if jx.State != Running || jy.State != Running {
		t.Fatalf("twins not co-scheduled: %v/%v", jx.State, jy.State)
	}
	twins.Drain()
	jx, _ = twins.Status(x)
	twinTime := jx.EndTime - jx.StartTime
	ratio := float64(twinTime) / float64(soloTime)
	if ratio < 1.5 || ratio > 2.5 {
		t.Fatalf("twins slowdown %.2f (solo %v, twin %v), want ≈2", ratio, soloTime, twinTime)
	}
}

func TestComputeBoundJobsShareHarmlessly(t *testing.T) {
	kernel := perfmodel.ComputeBoundKernel("dgemm", 3e12, 100)

	solo := newTestCluster(t, 1)
	a, _ := solo.Submit(JobSpec{Name: "solo", Tasks: 10, Kernel: &kernel})
	solo.Drain()
	js, _ := solo.Status(a)
	soloTime := js.EndTime - js.StartTime

	shared := newTestCluster(t, 1)
	x, _ := shared.Submit(JobSpec{Name: "one", Tasks: 10, Kernel: &kernel})
	shared.Submit(JobSpec{Name: "two", Tasks: 10, Kernel: &kernel})
	shared.Drain()
	jx, _ := shared.Status(x)
	ratio := float64(jx.EndTime-jx.StartTime) / float64(soloTime)
	if ratio > 1.1 {
		t.Fatalf("compute-bound twins slowed %.2f×", ratio)
	}
}

func TestContentionEndsWhenNeighbourLeaves(t *testing.T) {
	// A short memory hog shares with a long memory-bound job; after the
	// hog leaves, the long job speeds back up, so its total runtime lies
	// between the dedicated and fully-contended extremes.
	kernel := perfmodel.MemoryBoundKernel("stream", 5e11, 0.1)
	hogKernel := perfmodel.MemoryBoundKernel("hog", 5e10, 0.1) // 10% of the work

	solo := newTestCluster(t, 1)
	a, _ := solo.Submit(JobSpec{Name: "solo", Tasks: 10, Kernel: &kernel})
	solo.Drain()
	js, _ := solo.Status(a)
	dedicated := js.EndTime - js.StartTime

	mixed := newTestCluster(t, 1)
	long, _ := mixed.Submit(JobSpec{Name: "long", Tasks: 10, Kernel: &kernel})
	mixed.Submit(JobSpec{Name: "hog", Tasks: 10, Kernel: &hogKernel})
	mixed.Drain()
	jl, _ := mixed.Status(long)
	mixedTime := jl.EndTime - jl.StartTime
	if mixedTime <= dedicated {
		t.Fatalf("no contention visible: %v vs %v", mixedTime, dedicated)
	}
	if mixedTime >= 2*dedicated {
		t.Fatalf("contention never released: %v vs %v", mixedTime, dedicated)
	}
}

func TestMultiNodeJob(t *testing.T) {
	c := newTestCluster(t, 4)
	id, err := c.Submit(JobSpec{Name: "wide", Tasks: 64, TasksPerNode: 16, BaseTime: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := c.Status(id)
	if len(j.Nodes) != 4 {
		t.Fatalf("allocated %d nodes, want 4", len(j.Nodes))
	}
	c.Drain()
	j, _ = c.Status(id)
	if j.State != Completed {
		t.Fatalf("state %v", j.State)
	}
}

func TestRunUntilPartialProgress(t *testing.T) {
	c := newTestCluster(t, 1)
	id, _ := c.Submit(JobSpec{Name: "x", Tasks: 1, BaseTime: 100 * time.Second})
	c.RunUntil(30 * time.Second)
	if c.Now() != 30*time.Second {
		t.Fatalf("now %v", c.Now())
	}
	j, _ := c.Status(id)
	if j.State != Running {
		t.Fatalf("state %v", j.State)
	}
	c.RunUntil(200 * time.Second)
	j, _ = c.Status(id)
	if j.State != Completed || j.EndTime != 100*time.Second {
		t.Fatalf("completion %v at %v", j.State, j.EndTime)
	}
}

func TestSqueueSinfoRendering(t *testing.T) {
	c := newTestCluster(t, 2)
	c.Submit(JobSpec{Name: "render-me", Tasks: 32, BaseTime: time.Hour})
	c.Submit(JobSpec{Name: "waiting-job", Tasks: 64, BaseTime: time.Hour})
	sq := c.Squeue()
	if !strings.Contains(sq, "render-me") || !strings.Contains(sq, "JOBID") {
		t.Fatalf("squeue:\n%s", sq)
	}
	if !strings.Contains(sq, "PD") || !strings.Contains(sq, " R ") {
		t.Fatalf("squeue states:\n%s", sq)
	}
	si := c.Sinfo()
	if !strings.Contains(si, "n000") || !strings.Contains(si, "NODE") {
		t.Fatalf("sinfo:\n%s", si)
	}
}

func TestJobsSortedByID(t *testing.T) {
	c := newTestCluster(t, 1)
	for i := 0; i < 5; i++ {
		c.Submit(JobSpec{Name: "j", Tasks: 1, BaseTime: time.Second})
	}
	jobs := c.Jobs()
	for i := 1; i < len(jobs); i++ {
		if jobs[i].ID <= jobs[i-1].ID {
			t.Fatal("jobs not sorted")
		}
	}
}

func TestDrainReturnsEventCount(t *testing.T) {
	c := newTestCluster(t, 1)
	for i := 0; i < 3; i++ {
		c.Submit(JobSpec{Name: "j", Tasks: 32, BaseTime: time.Second})
	}
	if events := c.Drain(); events != 3 {
		t.Fatalf("%d events, want 3", events)
	}
}

// TestRandomWorkloadInvariants hammers the scheduler with a random mixed
// workload, checking the bookkeeping invariants after every event and
// that every job eventually completes with sane timestamps.
func TestRandomWorkloadInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 5; trial++ {
		nodes := 1 + rng.Intn(6)
		c, err := New(nodes, perfmodel.DefaultMachine())
		if err != nil {
			t.Fatal(err)
		}
		var ids []int
		for j := 0; j < 60; j++ {
			spec := JobSpec{
				Name:     fmt.Sprintf("j%d", j),
				Tasks:    1 + rng.Intn(nodes*32),
				BaseTime: time.Duration(1+rng.Intn(120)) * time.Second,
			}
			if rng.Intn(3) == 0 {
				spec.TasksPerNode = 1 + rng.Intn(32)
				need := (spec.Tasks + spec.TasksPerNode - 1) / spec.TasksPerNode
				if need > nodes {
					spec.TasksPerNode = 0
				}
			}
			if rng.Intn(4) == 0 {
				spec.Exclusive = true
			}
			if rng.Intn(2) == 0 {
				spec.TimeLimit = spec.BaseTime * 2
			}
			id, err := c.Submit(spec)
			if err != nil {
				continue // over-sized request: rejection is fine
			}
			ids = append(ids, id)
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("trial %d after submit %d: %v", trial, j, err)
			}
		}
		for c.Step() {
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("trial %d mid-drain: %v", trial, err)
			}
		}
		for _, id := range ids {
			j, _ := c.Status(id)
			if j.State != Completed {
				t.Fatalf("trial %d: job %d ended %v", trial, id, j.State)
			}
			if j.EndTime < j.StartTime || j.StartTime < j.SubmitTime {
				t.Fatalf("trial %d: job %d has incoherent times %+v", trial, id, j)
			}
		}
		if c.Utilization() != 0 {
			t.Fatalf("trial %d: cores leaked: %v", trial, c.Utilization())
		}
	}
}

func TestWorkloadStats(t *testing.T) {
	c := newTestCluster(t, 1)
	// Two back-to-back full-node jobs: the second waits 10s.
	c.Submit(JobSpec{Name: "a", Tasks: 32, BaseTime: 10 * time.Second})
	c.Submit(JobSpec{Name: "b", Tasks: 32, BaseTime: 10 * time.Second})
	c.Drain()
	st := c.Stats()
	if st.Jobs != 2 || st.Completed != 2 {
		t.Fatalf("counts %+v", st)
	}
	if st.Makespan != 20*time.Second {
		t.Fatalf("makespan %v", st.Makespan)
	}
	if st.MeanWait != 5*time.Second || st.MaxWait != 10*time.Second {
		t.Fatalf("waits %v/%v", st.MeanWait, st.MaxWait)
	}
	if st.Utilization < 0.99 || st.Utilization > 1.01 {
		t.Fatalf("utilization %v, want ≈1 (back-to-back full-node jobs)", st.Utilization)
	}
}

func TestWorkloadStatsEmpty(t *testing.T) {
	c := newTestCluster(t, 1)
	st := c.Stats()
	if st.Jobs != 0 || st.Utilization != 0 || st.MeanWait != 0 {
		t.Fatalf("empty stats %+v", st)
	}
}

// TestStatsCancelRequeuedInBackoff: a requeued job cancelled while it
// waits out its backoff was pending when it ended, so it adds nothing to
// the runtime, makespan or utilization figures, although its record still
// carries its first run's start.
func TestStatsCancelRequeuedInBackoff(t *testing.T) {
	c := newTestCluster(t, 1)
	c.RunUntil(time.Minute)
	id, err := c.Submit(JobSpec{Name: "rq", Tasks: 1, BaseTime: time.Hour, Requeue: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ScheduleNodeFail(0, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	c.RunUntil(3 * time.Minute)
	if j, _ := c.Status(id); j.State != Pending || j.Restarts != 1 || j.StartTime != time.Minute {
		t.Fatalf("setup: job is %v after %d restarts, started %v; want pending in backoff after a run from 1m",
			j.State, j.Restarts, j.StartTime)
	}
	if err := c.Cancel(id); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Cancelled != 1 || st.MeanRuntime != 0 || st.MeanWait != 0 || st.Makespan != 0 || st.Utilization != 0 {
		t.Fatalf("stats %+v: a job cancelled in backoff counts as started", st)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStatsCancelRunningStartedAtZero: a job that starts at time 0 and is
// cancelled while running counts as started, like one started a second
// later.
func TestStatsCancelRunningStartedAtZero(t *testing.T) {
	c := newTestCluster(t, 1)
	id, err := c.Submit(JobSpec{Name: "zero", Tasks: 1, BaseTime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	c.RunUntil(10 * time.Minute)
	if err := c.Cancel(id); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	cores := perfmodel.DefaultMachine().CoresPerNode
	if st.Cancelled != 1 || st.MeanRuntime != 10*time.Minute || st.Makespan != 10*time.Minute ||
		st.Utilization != 1/float64(cores) {
		t.Fatalf("stats %+v: want a 10m run on 1 of %d cores", st, cores)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReservationFreesExclusiveNode: an exclusive job's end frees its
// whole node, whatever its task count, so the head's reservation falls at
// that end and a fill job that would outlast it is refused.
func TestReservationFreesExclusiveNode(t *testing.T) {
	cores := perfmodel.DefaultMachine().CoresPerNode
	submit := func(t *testing.T, c *Cluster, spec JobSpec, want JobState) *Job {
		t.Helper()
		id, err := c.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		j := c.lookup(id)
		if j.State != want {
			t.Fatalf("job %q is %v, want %v", spec.Name, j.State, want)
		}
		return j
	}
	excl := JobSpec{Name: "excl", Tasks: 1, Exclusive: true, BaseTime: time.Hour, TimeLimit: time.Hour}
	wide := JobSpec{Name: "head", Tasks: cores, BaseTime: time.Hour, TimeLimit: time.Hour}

	t.Run("one node", func(t *testing.T) {
		c := newTestCluster(t, 1)
		submit(t, c, excl, Running)
		head := submit(t, c, wide, Pending)
		if got := c.earliestStart(head); got != time.Hour {
			t.Fatalf("head's reservation at %v, want 1h", got)
		}
	})

	// Node 0 is held by the exclusive job until 1h; node 1 runs a half-node
	// job until 3h. Replaying the exclusive job's release as one core puts
	// the head's reservation at 3h, and the 2h fill job on node 1's free
	// half would start.
	t.Run("two nodes", func(t *testing.T) {
		c := newTestCluster(t, 2)
		submit(t, c, excl, Running)
		submit(t, c, JobSpec{Name: "half", Tasks: cores / 2, BaseTime: 3 * time.Hour, TimeLimit: 3 * time.Hour}, Running)
		head := submit(t, c, wide, Pending)
		if got := c.earliestStart(head); got != time.Hour {
			t.Fatalf("head's reservation at %v, want 1h", got)
		}
		fill := submit(t, c, JobSpec{Name: "fill", Tasks: 1, BaseTime: 2 * time.Hour, TimeLimit: 2 * time.Hour}, Pending)
		c.Drain()
		if head.StartTime != time.Hour || fill.StartTime != time.Hour {
			t.Fatalf("head started at %v, fill at %v; want both at 1h", head.StartTime, fill.StartTime)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
