package cluster

import (
	"fmt"
	"slices"
	"time"
)

// Node-failure simulation: nodes can be scheduled to fail (and be
// repaired) at virtual times. A failing node kills every resident job
// with state NodeFail; jobs submitted with Requeue re-enter the queue
// with exponential backoff, the way SLURM's --requeue resubmits a job
// preempted by NODE_FAIL. Down nodes are excluded from placement and
// backfill reservations until repaired.

// DefaultMaxRequeues bounds how many times a Requeue job is resubmitted
// after node failures when JobSpec.MaxRequeues is zero.
const DefaultMaxRequeues = 3

// requeueBackoffBase is the delay before a failed job's first
// resubmission becomes eligible; each further failure doubles it.
const requeueBackoffBase = 30 * time.Second

// requeueBackoffCap caps the exponential backoff.
const requeueBackoffCap = 8 * time.Minute

// requeueBackoff computes the delay before the attempt-th resubmission
// (attempt counts from 1) may start.
func requeueBackoff(attempt int) time.Duration {
	d := requeueBackoffBase
	for i := 1; i < attempt && d < requeueBackoffCap; i++ {
		d *= 2
	}
	if d > requeueBackoffCap {
		d = requeueBackoffCap
	}
	return d
}

// ScheduleNodeFail arranges for node id to fail at virtual time at.
// Events in the past fire at the next Step.
func (c *Cluster) ScheduleNodeFail(id int, at time.Duration) error {
	return c.scheduleNodeEvent(id, at, true)
}

// ScheduleNodeRepair arranges for node id to return to service at
// virtual time at.
func (c *Cluster) ScheduleNodeRepair(id int, at time.Duration) error {
	return c.scheduleNodeEvent(id, at, false)
}

func (c *Cluster) scheduleNodeEvent(id int, at time.Duration, fail bool) error {
	if id < 0 || id >= len(c.nodes) {
		return fmt.Errorf("cluster: no node %d", id)
	}
	if at < 0 {
		return fmt.Errorf("cluster: node event at negative time %v", at)
	}
	aux := uint32(id) << 1
	if fail {
		aux |= 1
	}
	c.pushEvent(simEvent{at: at, key: c.eventSeq, aux: aux})
	c.eventSeq++
	return nil
}

// FailNode takes node id down immediately: resident jobs end with state
// NodeFail, and those submitted with Requeue re-enter the queue with
// backoff. Failing a down node is a no-op.
func (c *Cluster) FailNode(id int) error {
	if id < 0 || id >= len(c.nodes) {
		return fmt.Errorf("cluster: no node %d", id)
	}
	n := c.nodes[id]
	if n.down {
		return nil
	}
	n.down = true
	// Kill resident jobs. Copy the list: finish mutates n.jobs.
	for _, j := range slices.Clone(n.jobs) {
		c.finish(j, NodeFail)
		c.maybeRequeue(j)
		if j.State == NodeFail {
			c.evict(j) // requeue budget exhausted (or never requeued)
		}
	}
	c.schedule()
	return nil
}

// RepairNode returns node id to service and reschedules. Repairing a
// healthy node is a no-op.
func (c *Cluster) RepairNode(id int) error {
	if id < 0 || id >= len(c.nodes) {
		return fmt.Errorf("cluster: no node %d", id)
	}
	if !c.nodes[id].down {
		return nil
	}
	c.nodes[id].down = false
	c.schedule()
	return nil
}

// maybeRequeue resubmits a NodeFail job if its spec opted in and the
// requeue budget is not exhausted. The job keeps its id and original
// submit time; it becomes eligible to start after an exponential
// backoff, losing all progress (the simulator models full restarts; the
// checkpoint/restart story lives in the MPI runtime and modules). The
// backoff expiry is scheduled as a heap event so the eligible job wakes
// the scheduler without anyone scanning the pending queue.
func (c *Cluster) maybeRequeue(j *Job) {
	if !j.Spec.Requeue {
		return
	}
	max := j.Spec.MaxRequeues
	if max == 0 {
		max = DefaultMaxRequeues
	}
	if j.Restarts >= max {
		return
	}
	j.Restarts++
	j.State = Pending
	j.remaining = 1
	j.eligibleAt = c.now + requeueBackoff(j.Restarts)
	c.order = append(c.order, j)
	c.agg.requeues++
	c.agg.nodeFailed-- // finish(NodeFail) counted it; the job is back in the queue
	c.pushEvent(jobEvent(j.eligibleAt, evRequeue, j))
}
