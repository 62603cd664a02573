package cluster

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"time"
	"unicode/utf8"
)

// eventClass orders simultaneous events. The tie-breaks preserve the
// original engine's semantics: a node failure at the same instant as a
// completion sees the job still there, a requeue expiry fires before job
// events, and a completion beats a walltime kill at the same instant.
type eventClass uint8

const (
	evNode eventClass = iota
	evRequeue
	evJobDone
	evJobTimeout
)

// simEvent is one entry of the unified event heap, 32 bytes. Job-bound
// events point at their job's record and are stamped with its generation
// at push time; any later rate or state transition bumps the generation,
// so stale entries are simply discarded when they surface (lazy
// invalidation — the heap is never searched or re-keyed). A recycled
// record keeps counting generations, so an entry left over from its
// previous job never validates against the next one.
type simEvent struct {
	at  time.Duration
	job *Job // evRequeue/evJobDone/evJobTimeout; nil for evNode
	// key breaks ties at one instant: class<<62 | job id for job events,
	// the push sequence for node events (class 0).
	key uint64
	// aux is the job's generation at push time, or node<<1 | fail.
	aux uint32
}

// jobEvent builds a job-bound event under the job's current generation.
func jobEvent(at time.Duration, class eventClass, j *Job) simEvent {
	return simEvent{at: at, job: j, key: uint64(class)<<62 | uint64(j.ID), aux: j.gen}
}

func (ev simEvent) class() eventClass { return eventClass(ev.key >> 62) }
func (ev simEvent) node() int         { return int(ev.aux >> 1) }
func (ev simEvent) fail() bool        { return ev.aux&1 != 0 }

// evLess is the heap order: time, then class, then job id for job events
// or push order for node events. Everything after `at` only breaks exact
// ties, deterministically: two events of one job tie on the whole order
// only when at most one of them is live, and the stale one is dropped
// whichever surfaces first.
func evLess(a, b simEvent) bool {
	return a.at < b.at || a.at == b.at && a.key < b.key
}

// pushEvent adds an event to the min-heap (sift-up).
func (c *Cluster) pushEvent(ev simEvent) {
	c.events = append(c.events, ev)
	i := len(c.events) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !evLess(c.events[i], c.events[parent]) {
			break
		}
		c.events[i], c.events[parent] = c.events[parent], c.events[i]
		i = parent
	}
}

// popEventHeap removes the heap minimum (sift-down).
func (c *Cluster) popEventHeap() simEvent {
	top := c.events[0]
	last := len(c.events) - 1
	c.events[0] = c.events[last]
	c.events = c.events[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(c.events) && evLess(c.events[l], c.events[min]) {
			min = l
		}
		if r < len(c.events) && evLess(c.events[r], c.events[min]) {
			min = r
		}
		if min == i {
			return top
		}
		c.events[i], c.events[min] = c.events[min], c.events[i]
		i = min
	}
}

// valid reports whether a popped event still describes reality.
func (ev simEvent) valid() bool {
	switch ev.class() {
	case evNode:
		return true
	case evRequeue:
		return ev.job.State == Pending && ev.aux == ev.job.gen
	default: // evJobDone, evJobTimeout
		return ev.job.State == Running && ev.aux == ev.job.gen
	}
}

// peekValid discards stale heap entries until the minimum is a live
// event, returning it without removing it. O(1) when the top is already
// valid — RunUntil's peek + Step's pop cost one pop total per event.
func (c *Cluster) peekValid() (simEvent, bool) {
	for len(c.events) > 0 {
		if c.events[0].valid() {
			return c.events[0], true
		}
		c.popEventHeap()
		c.probeStale++
	}
	return simEvent{}, false
}

// pushJobEvents (re)schedules a running job's end under its current
// rate, invalidating whatever was scheduled before. Only the end that
// comes first is pushed: its completion, or its walltime kill when that
// comes strictly earlier (a completion beats a kill at the same instant)
// or the job has no positive rate. Every rate change pushes again, so the
// other end needs no entry of its own.
func (c *Cluster) pushJobEvents(j *Job) {
	j.gen++
	if j.State != Running {
		return
	}
	at, ok := c.completionETA(j)
	class := evJobDone
	if kill := j.StartTime + j.Spec.TimeLimit; j.Spec.TimeLimit > 0 && (!ok || kill < at) {
		at, class, ok = kill, evJobTimeout, true
	}
	if ok {
		c.pushEvent(jobEvent(at, class, j))
	}
}

// completionETA predicts when the job finishes its remaining work at the
// current rate. Jobs with no positive rate never complete on their own.
func (c *Cluster) completionETA(j *Job) (time.Duration, bool) {
	if j.rate <= 0 {
		return 0, false
	}
	eta := j.settledAt + durationFromSeconds(j.remaining/j.rate)
	if eta < c.now {
		eta = c.now
	}
	return eta, true
}

// durationFromSeconds converts with saturation instead of overflow wrap.
func durationFromSeconds(s float64) time.Duration {
	v := s * float64(time.Second)
	if v >= float64(math.MaxInt64) {
		return maxDuration
	}
	return time.Duration(v)
}

// settle drains a running job's remaining work up to the current time at
// its current rate. Between rate changes progress is linear, so this is
// exact however late it runs; advancing the clock itself is O(1).
func (c *Cluster) settle(j *Job) {
	if j.State == Running && c.now > j.settledAt {
		j.remaining -= j.rate * (c.now - j.settledAt).Seconds()
		if j.remaining < 0 {
			j.remaining = 0
		}
	}
	j.settledAt = c.now
}

// Step advances virtual time to the next event — a job completion or
// timeout, a scheduled node failure/repair, or a requeued job's backoff
// expiry — and processes it. It returns false when no event is left
// (nothing can make progress without a new submission).
func (c *Cluster) Step() bool {
	ev, ok := c.peekValid()
	if !ok {
		return false
	}
	c.popEventHeap()
	c.probePops++
	if ev.at > c.now {
		c.advanceTo(ev.at)
	}
	switch ev.class() {
	case evNode:
		// Late-scheduled events fire immediately (at <= now handled by
		// the clamp above).
		if ev.fail() {
			c.FailNode(ev.node()) // kills residents, requeues, reschedules
		} else {
			c.RepairNode(ev.node())
		}
	case evRequeue:
		c.schedule()
	case evJobDone:
		j := ev.job
		c.settle(j)
		j.remaining = 0
		c.finish(j, Completed)
		c.evict(j)
		c.schedule()
	case evJobTimeout:
		j := ev.job
		c.settle(j)
		c.finish(j, TimedOut)
		c.evict(j)
		c.schedule()
	}
	return true
}

// advanceTo moves virtual time forward. Running jobs drain lazily — their
// remaining work is settled when their rate changes or they finish — so
// this is O(1) regardless of how many jobs are in flight.
func (c *Cluster) advanceTo(t time.Duration) {
	if t > c.now {
		c.now, c.atFixpoint = t, false
	}
}

// Drain runs the simulation until every submitted job has finished.
// It returns the number of processed events.
func (c *Cluster) Drain() int {
	events := 0
	for c.Step() {
		events++
	}
	return events
}

// RunUntil advances the simulation clock to t, processing any events due
// before it. The pending event is peeked in O(1) off the heap top, so
// stepping to a deadline does no more event-finding work than Drain
// (pinned by TestRunUntilSinglePopPerEvent).
func (c *Cluster) RunUntil(t time.Duration) {
	for {
		ev, ok := c.peekValid()
		if !ok || ev.at > t {
			break
		}
		if !c.Step() {
			break
		}
	}
	if c.now < t {
		c.advanceTo(t)
	}
}

// EventProbe reports how many heap events were dispatched and how many
// stale (generation-mismatched) entries were discarded since the cluster
// was created. Tests use it to pin the single-pop-per-event contract and
// to bound invalidation churn. A running job holds one entry, its first
// end, so stale entries come only from rate changes, node failures,
// cancellations and requeues: a drain of fixed-duration jobs without
// faults discards none.
func (c *Cluster) EventProbe() (dispatched, stale int) {
	return c.probePops, c.probeStale
}

// Jobs returns copies of all retained job records sorted by id. With
// retention off (SetRetainFinished(false)) this is the in-flight set.
func (c *Cluster) Jobs() []Job {
	out := make([]Job, 0, c.LiveJobs())
	for _, run := range c.held() {
		for _, j := range run {
			out = append(out, j.copyOut())
		}
	}
	if !c.retainFinished { // the index is in id order already
		slices.SortFunc(out, func(a, b Job) int { return a.ID - b.ID })
	}
	return out
}

// Squeue renders the queue like `squeue`: one row per non-finished job.
func (c *Cluster) Squeue() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %-16s %3s %6s %8s %s\n", "JOBID", "NAME", "ST", "TASKS", "TIME", "NODELIST(REASON)")
	for _, j := range c.Jobs() {
		if j.State != Pending && j.State != Running {
			continue
		}
		elapsed := time.Duration(0)
		nodelist := "(Priority)"
		if j.Restarts > 0 && j.State == Pending {
			nodelist = "(Requeued)"
			if j.eligibleAt > c.now {
				nodelist = fmt.Sprintf("(Requeued, eligible in %s)", (j.eligibleAt - c.now).Round(time.Second))
			}
		}
		if j.State == Running {
			elapsed = c.now - j.StartTime
			ids := make([]string, len(j.Nodes))
			for i, n := range j.Nodes {
				ids[i] = fmt.Sprintf("n%03d", n)
			}
			nodelist = strings.Join(ids, ",")
		}
		fmt.Fprintf(&b, "%6d %-16s %3s %6d %8s %s\n",
			j.ID, truncate(j.Spec.Name, 16), j.State, j.Spec.Tasks,
			elapsed.Round(time.Second), nodelist)
	}
	return b.String()
}

// Sinfo renders node state like `sinfo -N`.
func (c *Cluster) Sinfo() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %6s %6s %s\n", "NODE", "CORES", "FREE", "STATE")
	for _, n := range c.nodes {
		fmt.Fprintf(&b, "n%03d     %6d %6d %s\n", n.id, c.machine.CoresPerNode, n.freeCores, n.state())
	}
	return b.String()
}

// Utilization returns the fraction of cores currently allocated.
func (c *Cluster) Utilization() float64 {
	total, used := 0, 0
	for _, n := range c.nodes {
		total += c.machine.CoresPerNode
		used += c.machine.CoresPerNode - n.freeCores
	}
	if total == 0 {
		return 0
	}
	return float64(used) / float64(total)
}

// truncate shortens s to at most n display runes. Slicing happens on
// rune boundaries: byte-slicing a multibyte job name would emit invalid
// UTF-8 into the squeue/sacct tables.
func truncate(s string, n int) string {
	if len(s) <= n {
		return s // bytes ≤ n implies runes ≤ n
	}
	if utf8.RuneCountInString(s) <= n {
		return s
	}
	runes := []rune(s)
	return string(runes[:n-1]) + "…"
}

// CheckInvariants validates the scheduler's bookkeeping: per-node free
// cores must equal capacity minus the tasks of resident jobs, exclusive
// nodes host exactly one job, every running job's nodes list it, no node
// is oversubscribed and only running jobs hold nodes. The current time
// has not moved back since the previous call, and no record is stamped
// after it. Every submitted job is pending, running or counted once as
// finished. With retention on, slot id−1 of the index holds job id and
// every live job is in it, and Stats' finished counts and its started,
// wait, runtime, core-time, makespan and wait-histogram figures equal a
// recount of the records. With retention off there is no index. No
// record kept for reuse is live or indexed. When nothing has moved the
// clock, the policy or the scan cap since the last scheduling pass, the
// queue is at that pass's fixpoint (checkFixpoint). Tests call it after
// every event (or, at million-job scale, on a sampled subset of events —
// it is O(jobs)).
func (c *Cluster) CheckInvariants() error {
	if c.now < c.checkedNow {
		return fmt.Errorf("cluster: now moved back from %v to %v since the last check", c.checkedNow, c.now)
	}
	c.checkedNow = c.now
	if c.retainFinished && len(c.records) != c.nextID-1 {
		return fmt.Errorf("cluster: index has %d slots for %d ids", len(c.records), c.nextID-1)
	}
	if !c.retainFinished && c.records != nil {
		return fmt.Errorf("cluster: retention off keeps an index of %d records", len(c.records))
	}
	type nodeLoad struct {
		tasks int
		jobs  int
	}
	load := make([]nodeLoad, len(c.nodes))
	var terminal [NodeFail + 1]int
	var recount statsAgg // the started jobs' figures, from the records
	running := 0
	for _, run := range c.held() {
		for i, j := range run {
			if c.retainFinished && j.ID != i+1 {
				return fmt.Errorf("cluster: index slot of job %d holds job %d", i+1, j.ID)
			}
			if j.SubmitTime > c.now || j.StartTime > c.now || j.settledAt > c.now {
				return fmt.Errorf("cluster: job %d stamped after now (%v): submitted %v, started %v, settled %v",
					j.ID, c.now, j.SubmitTime, j.StartTime, j.settledAt)
			}
			switch j.State {
			case Completed, Cancelled, TimedOut, NodeFail:
				if j.EndTime > c.now {
					return fmt.Errorf("cluster: %v job %d stamped after now (%v): ended %v", j.State, j.ID, c.now, j.EndTime)
				}
				terminal[j.State]++
				if j.State != NodeFail && j.endedRunning() {
					recount.addRun(j)
				}
			}
			if j.State != Running {
				if len(j.Nodes) > 0 || len(j.tasksOn) > 0 {
					return fmt.Errorf("cluster: %v job %d holds nodes %v", j.State, j.ID, j.Nodes)
				}
				continue
			}
			running++
			if j.runIdx >= len(c.running) || c.running[j.runIdx] != j {
				return fmt.Errorf("cluster: running job %d missing from running index", j.ID)
			}
			if len(j.Nodes) != len(j.tasksOn) {
				return fmt.Errorf("cluster: job %d has %d nodes but %d task entries", j.ID, len(j.Nodes), len(j.tasksOn))
			}
			total := 0
			for i, nid := range j.Nodes {
				if nid < 0 || nid >= len(c.nodes) {
					return fmt.Errorf("cluster: job %d allocated to bogus node %d", j.ID, nid)
				}
				load[nid].tasks += j.tasksOn[i]
				load[nid].jobs++
				total += j.tasksOn[i]
				if !slices.Contains(c.nodes[nid].jobs, j) {
					return fmt.Errorf("cluster: node %d does not list resident job %d", nid, j.ID)
				}
			}
			if total != j.Spec.Tasks {
				return fmt.Errorf("cluster: job %d placed %d of %d tasks", j.ID, total, j.Spec.Tasks)
			}
		}
	}
	if len(c.running) != running {
		return fmt.Errorf("cluster: running index has %d jobs, %d records are running", len(c.running), running)
	}
	for i, n := range c.nodes {
		if load[i].tasks > c.machine.CoresPerNode {
			return fmt.Errorf("cluster: node %d oversubscribed: %d tasks on %d cores", i, load[i].tasks, c.machine.CoresPerNode)
		}
		if n.down && len(n.jobs) > 0 {
			return fmt.Errorf("cluster: down node %d still hosts %d jobs", i, len(n.jobs))
		}
		if !n.exclusive {
			want := c.machine.CoresPerNode - load[i].tasks
			if n.freeCores != want {
				return fmt.Errorf("cluster: node %d freeCores %d, want %d", i, n.freeCores, want)
			}
		} else {
			if load[i].jobs != 1 {
				return fmt.Errorf("cluster: exclusive node %d hosts %d jobs", i, load[i].jobs)
			}
			if n.freeCores != 0 {
				return fmt.Errorf("cluster: exclusive node %d shows %d free cores", i, n.freeCores)
			}
		}
		if len(n.jobs) != load[i].jobs {
			return fmt.Errorf("cluster: node %d lists %d jobs, %d resident", i, len(n.jobs), load[i].jobs)
		}
	}
	a := &c.agg
	if held := len(c.order) + len(c.running) + a.completed + a.timedOut + a.cancelled + a.nodeFailed; held != a.submitted {
		return fmt.Errorf("cluster: %d jobs submitted, %d pending, running or finished", a.submitted, held)
	}
	for _, j := range c.order {
		if j.State != Pending {
			return fmt.Errorf("cluster: queued job %d is %v", j.ID, j.State)
		}
	}
	// A requeued job is pending again and maybeRequeue backed its
	// NodeFail out of the aggregate, so each terminal count is the
	// records in that state now. The recount needs every record ever
	// submitted: retention on.
	if c.retainFinished {
		for _, run := range [...][]*Job{c.order, c.running} {
			for _, j := range run {
				if c.lookup(j.ID) != j {
					return fmt.Errorf("cluster: live job %d missing from the index", j.ID)
				}
			}
		}
		for _, st := range [...]struct {
			state JobState
			n     int
		}{{Completed, a.completed}, {TimedOut, a.timedOut}, {Cancelled, a.cancelled}, {NodeFail, a.nodeFailed}} {
			if terminal[st.state] != st.n {
				return fmt.Errorf("cluster: Stats counts %d %v jobs, the records hold %d", st.n, st.state, terminal[st.state])
			}
		}
		if a.started != recount.started {
			return fmt.Errorf("cluster: Stats counts %d started jobs, the records %d", a.started, recount.started)
		}
		for _, sum := range [...]struct {
			name     string
			got, rec time.Duration
		}{
			{"wait sum", a.waitSum, recount.waitSum}, {"max wait", a.maxWait, recount.maxWait},
			{"runtime sum", a.runSum, recount.runSum}, {"core time", a.coreTime, recount.coreTime},
			{"makespan", a.makespan, recount.makespan},
		} {
			if sum.got != sum.rec {
				return fmt.Errorf("cluster: Stats %s is %v, the records recount %v", sum.name, sum.got, sum.rec)
			}
		}
		if a.waitHist != recount.waitHist {
			return fmt.Errorf("cluster: Stats wait histogram differs from the records' recount")
		}
	}
	// Queued and running records are live and indexed ones sit under
	// their own id, so a free record that is neither live nor indexed is
	// reachable from none of them.
	for _, j := range c.free {
		if j.State == Pending || j.State == Running || c.retainFinished && c.lookup(j.ID) == j {
			return fmt.Errorf("cluster: record of job %d kept for reuse is %v and reachable", j.ID, j.State)
		}
	}
	if c.atFixpoint {
		return c.checkFixpoint()
	}
	return nil
}

// checkFixpoint requires what a scheduling pass leaves behind, by its own
// walk of the queue: the first eligible pending job does not fit, and under
// PolicyBackfill no job in the scan window both fits and finishes before
// that job's reservation, so a fresh pass would start nothing.
func (c *Cluster) checkFixpoint() error {
	var head *Job
	var headStart time.Duration
	scanned := 0
	for _, j := range c.order {
		if j.eligibleAt > c.now {
			continue
		}
		if head == nil {
			head = j
			if c.canPlace(j) {
				return fmt.Errorf("cluster: first eligible pending job %d fits but was not started", j.ID)
			}
			if c.policy == PolicyFIFO {
				return nil
			}
			headStart = c.earliestStart(j)
			continue
		}
		if scanned++; c.backfillLimit > 0 && scanned > c.backfillLimit {
			return nil
		}
		if j.Spec.TimeLimit > 0 && c.now+j.Spec.TimeLimit <= headStart && c.canPlace(j) {
			return fmt.Errorf("cluster: pending job %d fits and ends by job %d's reservation at %v but was not started",
				j.ID, head.ID, headStart)
		}
	}
	return nil
}

// waitBuckets is the size of the log₂-spaced wait-time histogram backing
// the p99 estimate: bucket i holds waits in [2^(i-1), 2^i) milliseconds.
const waitBuckets = 48

// statsAgg accumulates workload statistics incrementally at submit and
// finish so Stats is O(1) and never rescans the job records (which may
// have been evicted anyway).
type statsAgg struct {
	submitted  int
	completed  int
	timedOut   int
	cancelled  int
	nodeFailed int
	requeues   int

	started  int
	waitSum  time.Duration
	maxWait  time.Duration
	runSum   time.Duration
	coreTime time.Duration
	makespan time.Duration
	waitHist [waitBuckets]int

	// offeredCoreSec sums Tasks × BaseTime over submissions: the load
	// offered to the cluster, independent of whether it kept up.
	offeredCoreSec float64
}

// accountTerminal folds a job that just reached a terminal state into the
// aggregate; ran says whether it was running when it ended. A NodeFail job
// that is later requeued is backed out again by maybeRequeue (it only
// contributed the NodeFailed count — wait/runtime figures are only
// accumulated for Completed/TimedOut/running-Cancelled jobs, which never
// return to the queue). The caller knows whether the job ran; StartTime
// alone cannot tell, since a job can start at time 0 and a requeued job
// cancelled in backoff keeps its previous run's start.
func (c *Cluster) accountTerminal(j *Job, ran bool) {
	a := &c.agg
	switch j.State {
	case Completed:
		a.completed++
	case TimedOut:
		a.timedOut++
	case Cancelled:
		a.cancelled++
	case NodeFail:
		a.nodeFailed++
		return
	default:
		return
	}
	if ran {
		a.addRun(j)
	}
}

// addRun folds the wait and run of a job that ended while running.
func (a *statsAgg) addRun(j *Job) {
	wait := j.StartTime - j.SubmitTime
	a.waitSum += wait
	if wait > a.maxWait {
		a.maxWait = wait
	}
	a.waitHist[waitBucket(wait)]++
	a.started++
	run := j.EndTime - j.StartTime
	a.runSum += run
	a.coreTime += run * time.Duration(j.Spec.Tasks)
	if j.EndTime > a.makespan {
		a.makespan = j.EndTime
	}
}

// waitBucket maps a wait to its log₂ millisecond bucket.
func waitBucket(w time.Duration) int {
	ms := uint64(w / time.Millisecond)
	b := bits.Len64(ms)
	if b >= waitBuckets {
		return waitBuckets - 1
	}
	return b
}

// WorkloadStats summarizes a completed workload: the scheduler-quality
// numbers a SLURM operator (or the ancillary module's students) would
// look at.
type WorkloadStats struct {
	Jobs       int
	Completed  int
	TimedOut   int
	Cancelled  int
	NodeFailed int           // jobs currently in NodeFail (requeue budget exhausted or no --requeue)
	Requeues   int           // total resubmissions after node failures
	Makespan   time.Duration // last completion time
	MeanWait   time.Duration // submit → start, over started jobs
	MaxWait    time.Duration
	// P99Wait is the 99th-percentile wait, estimated from a log₂
	// millisecond histogram (reported as the upper bound of the bucket
	// holding the percentile, capped at MaxWait — ≤2× resolution, O(1)
	// memory).
	P99Wait     time.Duration
	MeanRuntime time.Duration // start → end, over finished jobs
	// Utilization is the core-time actually allocated divided by
	// nodes × cores × makespan.
	Utilization float64
}

// Stats computes workload statistics over every job ever submitted. It
// reads the incremental aggregate, so it is O(1) and remains exact when
// finished jobs have been evicted.
func (c *Cluster) Stats() WorkloadStats {
	a := &c.agg
	st := WorkloadStats{
		Jobs:       a.submitted,
		Completed:  a.completed,
		TimedOut:   a.timedOut,
		Cancelled:  a.cancelled,
		NodeFailed: a.nodeFailed,
		Requeues:   a.requeues,
		Makespan:   a.makespan,
		MaxWait:    a.maxWait,
	}
	if a.started > 0 {
		st.MeanWait = a.waitSum / time.Duration(a.started)
		st.MeanRuntime = a.runSum / time.Duration(a.started)
		// A bucket's upper bound can pass the largest wait in it.
		st.P99Wait = min(waitPercentile(&a.waitHist, a.started, 0.99), a.maxWait)
	}
	if st.Makespan > 0 {
		capacity := st.Makespan * time.Duration(len(c.nodes)*c.machine.CoresPerNode)
		st.Utilization = float64(a.coreTime) / float64(capacity)
	}
	return st
}

// waitPercentile reads the q-quantile out of the log₂ histogram,
// reporting the upper bound of the bucket that crosses it.
func waitPercentile(hist *[waitBuckets]int, total int, q float64) time.Duration {
	if total == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	cum := 0
	for i, n := range hist {
		cum += n
		if cum >= rank {
			if i == 0 {
				return 0 // sub-millisecond waits
			}
			return time.Duration(uint64(1)<<uint(i)) * time.Millisecond
		}
	}
	return maxDuration
}
