package cluster

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/perfmodel"
)

func newFaultCluster(t *testing.T, nodes int) *Cluster {
	t.Helper()
	c, err := New(nodes, perfmodel.DefaultMachine())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// step runs one event and validates the bookkeeping.
func step(t *testing.T, c *Cluster) bool {
	t.Helper()
	ok := c.Step()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return ok
}

func TestNodeFailKillsResidentJob(t *testing.T) {
	c := newFaultCluster(t, 2)
	cores := perfmodel.DefaultMachine().CoresPerNode
	id, err := c.Submit(JobSpec{Name: "victim", Tasks: cores, TasksPerNode: cores, BaseTime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := c.Status(id)
	if j.State != Running || len(j.Nodes) != 1 {
		t.Fatalf("setup: %+v", j)
	}
	if err := c.FailNode(j.Nodes[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	j, _ = c.Status(id)
	if j.State != NodeFail {
		t.Fatalf("job state %v after node failure, want NF", j.State)
	}
	if j.State.String() != "NF" {
		t.Fatalf("NodeFail renders as %q", j.State.String())
	}
	if !strings.Contains(c.Sinfo(), "down") {
		t.Fatalf("sinfo does not show the down node:\n%s", c.Sinfo())
	}
	if !strings.Contains(c.Sacct(), "NF") {
		t.Fatalf("sacct does not show NODE_FAIL:\n%s", c.Sacct())
	}
}

func TestRequeueWithBackoff(t *testing.T) {
	c := newFaultCluster(t, 2)
	cores := perfmodel.DefaultMachine().CoresPerNode
	id, err := c.Submit(JobSpec{Name: "phoenix", Tasks: cores, TasksPerNode: cores,
		BaseTime: 10 * time.Minute, Requeue: true})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := c.Status(id)
	failedNode := j.Nodes[0]
	if err := c.FailNode(failedNode); err != nil {
		t.Fatal(err)
	}
	j, _ = c.Status(id)
	if j.State != Pending || j.Restarts != 1 {
		t.Fatalf("after failure: state=%v restarts=%d, want pending with 1 restart", j.State, j.Restarts)
	}
	if !strings.Contains(c.Squeue(), "Requeued") {
		t.Fatalf("squeue does not mark the requeued job:\n%s", c.Squeue())
	}
	// The job must not restart before its backoff expires, even though a
	// healthy node is free.
	if j2, _ := c.Status(id); j2.State == Running {
		t.Fatal("requeued job restarted with no backoff")
	}
	before := c.Now()
	if !step(t, c) {
		t.Fatal("no event for backoff expiry")
	}
	j, _ = c.Status(id)
	if j.State != Running {
		t.Fatalf("after backoff: state=%v, want running", j.State)
	}
	if wait := c.Now() - before; wait != requeueBackoff(1) {
		t.Fatalf("restart after %v, want backoff %v", wait, requeueBackoff(1))
	}
	// The replacement must avoid the dead node.
	if j.Nodes[0] == failedNode {
		t.Fatal("requeued job placed on the failed node")
	}
	// Drain: the job completes on the healthy node.
	for step(t, c) {
	}
	j, _ = c.Status(id)
	if j.State != Completed {
		t.Fatalf("final state %v", j.State)
	}
	st := c.Stats()
	if st.Requeues != 1 || st.Completed != 1 || st.NodeFailed != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestSacctElapsedZeroUnlessRunning: ELAPSED is a job's run time, so a
// job cancelled in the queue or in requeue backoff shows 0 however long
// it waited or ran before its requeue, while a job cancelled running
// shows its run.
func TestSacctElapsedZeroUnlessRunning(t *testing.T) {
	c := newFaultCluster(t, 2)
	cores := perfmodel.DefaultMachine().CoresPerNode
	spec := JobSpec{Tasks: cores, TasksPerNode: cores, BaseTime: time.Hour}
	spec.Name = "running"
	running, _ := c.Submit(spec) // node 0
	spec.Name, spec.Requeue = "requeued", true
	requeued, _ := c.Submit(spec) // node 1
	spec.Name, spec.Requeue = "queued", false
	queued, _ := c.Submit(spec) // waits
	c.RunUntil(5 * time.Minute)
	j, _ := c.Status(requeued)
	if err := c.FailNode(j.Nodes[0]); err != nil { // requeued goes into backoff
		t.Fatal(err)
	}
	c.RunUntil(5*time.Minute + requeueBackoff(1)/2)
	for _, id := range []int{queued, requeued, running} {
		if err := c.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	want := map[int]string{queued: "0s", requeued: "0s", running: (5*time.Minute + requeueBackoff(1)/2).String()}
	for _, line := range strings.Split(strings.TrimSpace(c.Sacct()), "\n")[1:] {
		f := strings.Fields(line)
		id, _ := strconv.Atoi(f[0])
		if f[2] != "CA" || f[3] != want[id] {
			t.Errorf("sacct row %q: want CA with ELAPSED %s", line, want[id])
		}
		delete(want, id)
	}
	if len(want) != 0 {
		t.Errorf("sacct lists no row for jobs %v:\n%s", want, c.Sacct())
	}
}

func TestRequeueBudgetExhausted(t *testing.T) {
	c := newFaultCluster(t, 1)
	cores := perfmodel.DefaultMachine().CoresPerNode
	id, err := c.Submit(JobSpec{Name: "doomed", Tasks: cores, TasksPerNode: cores,
		BaseTime: time.Hour, Requeue: true, MaxRequeues: 2})
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt < 3; attempt++ {
		j, _ := c.Status(id)
		if j.State == Pending {
			// Wait out the backoff, repair the node so it can start.
			if err := c.RepairNode(0); err != nil {
				t.Fatal(err)
			}
			if !step(t, c) {
				t.Fatal("no backoff event")
			}
		}
		j, _ = c.Status(id)
		if j.State != Running {
			t.Fatalf("attempt %d: state %v", attempt, j.State)
		}
		if err := c.FailNode(0); err != nil {
			t.Fatal(err)
		}
	}
	j, _ := c.Status(id)
	if j.State != NodeFail {
		t.Fatalf("state %v after exhausting 2 requeues, want NF", j.State)
	}
	if j.Restarts != 2 {
		t.Fatalf("restarts = %d, want 2", j.Restarts)
	}
	if c.Stats().NodeFailed != 1 {
		t.Fatalf("stats: %+v", c.Stats())
	}
}

func TestScheduledNodeFailAndRepair(t *testing.T) {
	c := newFaultCluster(t, 2)
	cores := perfmodel.DefaultMachine().CoresPerNode
	// Two exclusive jobs fill both nodes.
	var ids []int
	for i := 0; i < 2; i++ {
		id, err := c.Submit(JobSpec{Name: "work", Tasks: cores, TasksPerNode: cores,
			BaseTime: 10 * time.Minute, Exclusive: true, Requeue: true})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	j0, _ := c.Status(ids[0])
	deadNode := j0.Nodes[0]
	if err := c.ScheduleNodeFail(deadNode, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := c.ScheduleNodeRepair(deadNode, 20*time.Minute); err != nil {
		t.Fatal(err)
	}
	for step(t, c) {
	}
	if len(c.DownNodes()) != 0 {
		t.Fatalf("node not repaired: down=%v", c.DownNodes())
	}
	for _, id := range ids {
		j, _ := c.Status(id)
		if j.State != Completed {
			t.Fatalf("job %d final state %v\n%s", id, j.State, c.Sacct())
		}
	}
	st := c.Stats()
	if st.Requeues != 1 {
		t.Fatalf("expected exactly one requeue, got %+v", st)
	}
}

func TestFailNodeIdempotentAndBounds(t *testing.T) {
	c := newFaultCluster(t, 1)
	if err := c.FailNode(0); err != nil {
		t.Fatal(err)
	}
	if err := c.FailNode(0); err != nil {
		t.Fatal(err) // second failure is a no-op
	}
	if err := c.FailNode(5); err == nil {
		t.Fatal("failed a nonexistent node")
	}
	if err := c.RepairNode(-1); err == nil {
		t.Fatal("repaired a nonexistent node")
	}
	if err := c.ScheduleNodeFail(0, -time.Second); err == nil {
		t.Fatal("scheduled an event at negative time")
	}
	// With the only node down, a submission queues but cannot start.
	cores := perfmodel.DefaultMachine().CoresPerNode
	id, err := c.Submit(JobSpec{Name: "stuck", Tasks: cores, TasksPerNode: cores, BaseTime: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := c.Status(id)
	if j.State != Pending {
		t.Fatalf("job started on a down cluster: %v", j.State)
	}
	if err := c.RepairNode(0); err != nil {
		t.Fatal(err)
	}
	j, _ = c.Status(id)
	if j.State != Running {
		t.Fatalf("repair did not reschedule: %v", j.State)
	}
}

func TestBackoffGrowth(t *testing.T) {
	if requeueBackoff(1) != 30*time.Second || requeueBackoff(2) != time.Minute || requeueBackoff(3) != 2*time.Minute {
		t.Fatalf("backoff sequence: %v %v %v", requeueBackoff(1), requeueBackoff(2), requeueBackoff(3))
	}
	if requeueBackoff(20) != requeueBackoffCap {
		t.Fatalf("backoff uncapped: %v", requeueBackoff(20))
	}
}

// TestBackoffHeadHoldsNoReservation pins that a requeued job still in
// backoff at the front of the queue is passed over entirely: the first
// eligible job behind it is the head (it starts without needing a
// walltime estimate), and the backfill scan cap counts from there.
func TestBackoffHeadHoldsNoReservation(t *testing.T) {
	cores := perfmodel.DefaultMachine().CoresPerNode
	// requeuedWide leaves a two-node job in backoff at order[0], with
	// node 0 down so it could not be placed anyway.
	requeuedWide := func(c *Cluster) {
		t.Helper()
		id, err := c.Submit(JobSpec{Name: "wide", Tasks: 2 * cores, BaseTime: 10 * time.Minute, Requeue: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.FailNode(0); err != nil {
			t.Fatal(err)
		}
		if j, _ := c.Status(id); j.State != Pending || j.eligibleAt <= c.Now() {
			t.Fatalf("setup: wide job %+v, want pending in backoff", j)
		}
	}
	running := func(c *Cluster, spec JobSpec) bool {
		t.Helper()
		id, err := c.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		j, _ := c.Status(id)
		return j.State == Running
	}

	t.Run("reservation", func(t *testing.T) {
		c := newFaultCluster(t, 2)
		requeuedWide(c)
		// No time limit: this job can never backfill, only start as head.
		if !running(c, JobSpec{Name: "small", Tasks: 1, BaseTime: time.Minute}) {
			t.Fatal("first eligible job held behind a reservation for the job in backoff")
		}
	})

	t.Run("scan cap", func(t *testing.T) {
		c := newFaultCluster(t, 2)
		c.SetBackfillLimit(1)
		requeuedWide(c)
		if !running(c, JobSpec{Name: "filler", Tasks: cores - 1, BaseTime: time.Minute, TimeLimit: time.Minute}) {
			t.Fatal("setup: filler did not start")
		}
		if running(c, JobSpec{Name: "head", Tasks: 2, BaseTime: time.Minute, TimeLimit: time.Minute}) {
			t.Fatal("setup: head started on one free core")
		}
		// One job past the head is within a scan cap of 1, and it ends
		// before the filler frees the head's cores.
		if !running(c, JobSpec{Name: "tiny", Tasks: 1, BaseTime: 10 * time.Second, TimeLimit: 10 * time.Second}) {
			t.Fatal("the job in backoff was counted against the backfill scan cap")
		}
	})
}

// DownNodes lists the ids of nodes currently out of service.
func (c *Cluster) DownNodes() []int {
	var out []int
	for _, n := range c.nodes {
		if n.down {
			out = append(out, n.id)
		}
	}
	return out
}
