package cluster

import (
	"slices"
	"strings"
	"testing"
	"time"
)

// TestCopiesSurviveRecordReuse pins that Status and Jobs hand out node
// lists of their own: with retention off a finished job's record and its
// node array go to the next submission, whose placement overwrites the
// array.
func TestCopiesSurviveRecordReuse(t *testing.T) {
	c := newTestCluster(t, 2)
	c.SetRetainFinished(false)
	submit := func(tasks int, run time.Duration) int {
		t.Helper()
		id, err := c.Submit(JobSpec{Name: "j", Tasks: tasks, BaseTime: run})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	submit(16, time.Hour)        // half of node 0, for the whole test
	a := submit(32, time.Minute) // node 1
	status, err := c.Status(a)
	if err != nil {
		t.Fatal(err)
	}
	var listed Job
	for _, j := range c.Jobs() {
		if j.ID == a {
			listed = j
		}
	}
	rec := c.lookup(a)
	submit(32, time.Hour) // waits for node 1
	c.Step()              // a ends; the waiting job takes node 1
	b := submit(4, time.Hour)
	if c.lookup(b) != rec || !slices.Equal(rec.Nodes, []int{0}) {
		t.Fatalf("setup: job %d does not hold job %d's record on node 0", b, a)
	}
	for _, cp := range []struct {
		from string
		job  Job
	}{{"Status", status}, {"Jobs", listed}} {
		if !slices.Equal(cp.job.Nodes, []int{1}) {
			t.Errorf("%s copy of job %d lists nodes %v after its record was reused, want [1]", cp.from, a, cp.job.Nodes)
		}
	}
}

// TestRetentionFixedAtFirstSubmit: retention is chosen before the first
// Submit, and a later call to SetRetainFinished, with either value, is a
// programmer error that panics.
func TestRetentionFixedAtFirstSubmit(t *testing.T) {
	for _, keep := range []bool{false, true} {
		c := newTestCluster(t, 1)
		c.SetRetainFinished(false)
		c.SetRetainFinished(true) // before any Submit: the last call wins
		if _, err := c.Submit(JobSpec{Name: "j", Tasks: 32, BaseTime: time.Minute}); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetRetainFinished(%v) after the first Submit did not panic", keep)
				}
			}()
			c.SetRetainFinished(keep)
		}()
		if !c.retainFinished {
			t.Errorf("retention changed by the call that panicked")
		}
	}
}

// TestCheckInvariantsCatches corrupts one piece of bookkeeping per case
// and requires CheckInvariants to name it. The cluster holds a finished
// job (retained), a running one and two pending ones: a full-node head and
// a one-core job that could backfill if a core were free.
func TestCheckInvariantsCatches(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(c *Cluster)
		want    string
	}{
		{"index slot", func(c *Cluster) { c.records[0] = c.running[0] }, "index slot of job 1"},
		{"pending job holds nodes", func(c *Cluster) {
			j := c.order[0]
			j.Nodes, j.tasksOn = []int{0}, []int{1}
		}, "holds nodes"},
		{"conservation", func(c *Cluster) { c.agg.submitted++ }, "jobs submitted"},
		{"queued job not pending", func(c *Cluster) { c.order[0].State = Cancelled }, "queued job"},
		{"retention off keeps a finished job", func(c *Cluster) { c.retainFinished = false }, "retention off"},
		{"live record kept for reuse", func(c *Cluster) { c.free = append(c.free, c.running[0]) }, "kept for reuse"},
		{"indexed record kept for reuse", func(c *Cluster) { c.free = append(c.free, c.records[0]) }, "kept for reuse"},
		{"submitted after now", func(c *Cluster) { c.order[0].SubmitTime = c.now + 1 }, "stamped after now"},
		{"started after now", func(c *Cluster) { c.running[0].StartTime = c.now + 1 }, "stamped after now"},
		{"settled after now", func(c *Cluster) { c.running[0].settledAt = c.now + 1 }, "stamped after now"},
		{"ended after now", func(c *Cluster) { c.records[0].EndTime = c.now + 1 }, "stamped after now"},
		{"finished count", func(c *Cluster) { c.records[0].State = TimedOut }, "Stats counts"},
		{"started count", func(c *Cluster) { c.agg.started++ }, "started jobs"},
		{"wait sum", func(c *Cluster) { c.agg.waitSum += time.Second }, "wait sum"},
		{"max wait", func(c *Cluster) { c.agg.maxWait += time.Second }, "max wait"},
		{"runtime sum", func(c *Cluster) { c.agg.runSum += time.Second }, "runtime sum"},
		{"core time", func(c *Cluster) { c.agg.coreTime += time.Second }, "core time"},
		{"makespan", func(c *Cluster) { c.agg.makespan += time.Second }, "makespan"},
		{"wait histogram", func(c *Cluster) { c.agg.waitHist[3]++ }, "wait histogram"},
		{"head fits", func(c *Cluster) { c.finish(c.running[0], Completed) }, "pending job 3 fits"},
		{"candidate fits", func(c *Cluster) {
			// The running job gives back one core without a pass.
			r := c.running[0]
			r.Spec.Tasks--
			r.tasksOn[0]--
			c.nodes[0].freeCores++
		}, "pending job 4 fits and ends by job 3's reservation"},
		{"now moved back", func(c *Cluster) {
			// Checked an hour on, then back a minute: no record is
			// stamped after either time.
			c.now += time.Hour
			_ = c.CheckInvariants()
			c.now -= time.Minute
		}, "now moved back"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(t, 1)
			for _, spec := range []JobSpec{
				{Name: "done", Tasks: 32, BaseTime: time.Minute},
				{Name: "run", Tasks: 32, BaseTime: time.Hour},
				{Name: "wait", Tasks: 32, BaseTime: time.Hour},
				{Name: "short", Tasks: 1, BaseTime: time.Minute, TimeLimit: 30 * time.Minute},
			} {
				if _, err := c.Submit(spec); err != nil {
					t.Fatal(err)
				}
				if spec.Name == "done" {
					c.Step()
				}
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("before corruption: %v", err)
			}
			tc.corrupt(c)
			err := c.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckInvariants = %v, want an error naming %q", err, tc.want)
			}
		})
	}
}
