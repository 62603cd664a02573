package cluster

import (
	"fmt"
	"strings"
	"time"
)

// Accounting is per-job communication accounting attached from a
// profiled run — the figures `sacct` reports beyond scheduler state.
type Accounting struct {
	CommBytes int64   // user payload bytes through communication primitives
	WaitFrac  float64 // the ranks' summed blocked time over their summed spans (prof.Account)
}

// AttachAccounting records profiling-derived accounting for a job. It
// may be called at any point in the job's lifecycle; Sacct reports
// whatever has been attached by render time.
func (c *Cluster) AttachAccounting(id int, a Accounting) error {
	j := c.lookup(id)
	if j == nil {
		return fmt.Errorf("cluster: no job %d", id)
	}
	j.Acct = &a
	return nil
}

// Sacct renders the accounting ledger like `sacct`: one row per job that
// has left the queue, with elapsed time (zero for a job cancelled while
// it was not running), allocation width and — for jobs
// with attached profiling accounting — communication volume and wait
// fraction.
func (c *Cluster) Sacct() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %-16s %5s %10s %7s %12s %6s\n",
		"JOBID", "JOBNAME", "STATE", "ELAPSED", "NNODES", "COMMBYTES", "WAIT%")
	for _, j := range c.Jobs() {
		if j.State == Pending {
			continue
		}
		elapsed := time.Duration(0)
		switch j.State {
		case Running:
			elapsed = c.now - j.StartTime
		case Completed, TimedOut, Cancelled, NodeFail:
			if j.endedRunning() {
				elapsed = j.EndTime - j.StartTime
			}
		}
		comm, wait := "-", "-"
		if j.Acct != nil {
			comm = fmt.Sprintf("%d", j.Acct.CommBytes)
			wait = fmt.Sprintf("%.1f", j.Acct.WaitFrac*100)
		}
		fmt.Fprintf(&b, "%6d %-16s %5s %10s %7d %12s %6s\n",
			j.ID, truncate(j.Spec.Name, 16), j.State, elapsed.Round(time.Millisecond),
			j.NumNodes, comm, wait)
	}
	return b.String()
}

// endedRunning reports whether a terminal job was running when it ended:
// every one but a job cancelled in the queue or in requeue backoff. A
// cancelled job ran if it holds an allocation width from a start after
// its last backoff (a requeue sets eligibleAt past the previous start).
func (j *Job) endedRunning() bool {
	return j.State != Cancelled || j.NumNodes > 0 && j.StartTime >= j.eligibleAt
}
