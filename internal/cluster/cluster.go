// Package cluster simulates the batch-scheduled cluster environment the
// paper's modules run on (NAU's Monsoon): nodes described by the roofline
// machine model, sbatch-style job submission, FIFO scheduling with EASY
// backfill, exclusive (dedicated) or shared node allocation, and
// memory-bandwidth contention between co-scheduled jobs — the mechanism
// behind the Section IV-B quiz question and the ancillary SLURM module.
//
// The simulation is event-driven over virtual time with a
// processor-sharing contention model: whenever node occupancy changes,
// every affected job's progress rate is recomputed from the machine
// model, so a memory-bound job visibly slows when a bandwidth-hungry
// neighbour lands on its node.
//
// The event core is a min-heap of 32-byte events (completions, walltime
// kills, requeue-backoff expiries, node failures/repairs unified in one
// queue); a running job holds one entry, for whichever of its completion
// and its kill comes first. A job's event points at the job's record and
// carries the generation the job had when it was pushed; every state or
// rate change bumps the generation, so superseded events are invalidated
// lazily — dropped when they surface, never searched for or re-keyed.
// Each scheduling event walks the pending queue once, resuming after a
// start where the pass left off. Progress is
// settled lazily too: a job's remaining work is only drained when its
// rate changes or it finishes, so advancing time is O(1) and a Drain
// over n jobs costs O(events · log n) rather than the O(events · jobs)
// of a per-event rescan. Stats accumulate incrementally at submit/finish,
// and SetRetainFinished(false) evicts terminal jobs so memory stays
// bounded by in-flight work; their records, generation still counting,
// are reused by later submissions — together these let the
// internal/workload generators stream millions of jobs through one
// Cluster.
package cluster

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"repro/internal/perfmodel"
)

// JobState is the lifecycle state of a submitted job.
type JobState int

const (
	Pending JobState = iota
	Running
	Completed
	Cancelled
	TimedOut
	// NodeFail marks a job killed by the failure of a node it was
	// running on. Jobs submitted with Requeue leave this state again
	// when they are resubmitted.
	NodeFail
)

// String renders the state like squeue would.
func (s JobState) String() string {
	switch s {
	case Pending:
		return "PD"
	case Running:
		return "R"
	case Completed:
		return "CD"
	case Cancelled:
		return "CA"
	case TimedOut:
		return "TO"
	case NodeFail:
		return "NF"
	default:
		return "??"
	}
}

// Policy selects how pending jobs are started.
type Policy int

const (
	// PolicyBackfill is FIFO order with EASY backfill: later jobs may
	// start early when their walltime estimate provably cannot delay
	// the head job's reservation. This is the default (and the only
	// behaviour before the policy knob existed).
	PolicyBackfill Policy = iota
	// PolicyFIFO is strict FIFO: the first eligible pending job that
	// cannot be placed blocks everything behind it.
	PolicyFIFO
)

// String names the policy the way the sweep tables print it.
func (p Policy) String() string {
	if p == PolicyFIFO {
		return "fifo"
	}
	return "backfill"
}

// JobSpec is the sbatch-style description of a job.
type JobSpec struct {
	Name  string
	Tasks int // total ranks (--ntasks)
	// TasksPerNode caps ranks per node (--ntasks-per-node); 0 packs as
	// many as fit.
	TasksPerNode int
	// Exclusive requests dedicated nodes (--exclusive).
	Exclusive bool
	// Kernel characterizes the program for the contention model. Nil
	// jobs run for exactly BaseTime regardless of neighbours.
	Kernel *perfmodel.Kernel
	// BaseTime is the dedicated-placement runtime for nil-Kernel jobs,
	// and is ignored when Kernel is set (the model computes it).
	BaseTime time.Duration
	// TimeLimit kills the job if exceeded (0 = no limit). It is also
	// the walltime estimate used for backfill reservations.
	TimeLimit time.Duration
	// Requeue resubmits the job with exponential backoff when a node it
	// runs on fails (sbatch --requeue).
	Requeue bool
	// MaxRequeues bounds the resubmissions; 0 means DefaultMaxRequeues.
	MaxRequeues int
}

// Job is the scheduler's record of a submitted job.
type Job struct {
	ID    int
	Spec  JobSpec
	State JobState

	SubmitTime time.Duration
	StartTime  time.Duration
	EndTime    time.Duration

	// Acct holds profiling-derived accounting attached via
	// AttachAccounting; nil when the job was never profiled.
	Acct *Accounting

	// Restarts counts how many times the job was requeued after a node
	// failure.
	Restarts int

	// Nodes holds the ids of allocated nodes while running.
	Nodes []int
	// NumNodes records the allocation width for completed jobs (Nodes
	// is released at finish).
	NumNodes int
	// tasks per allocated node, parallel to Nodes. Its array holds Nodes
	// too and stays with the record when both are released (as its
	// capacity), so the record's next placement reuses it.
	tasksOn []int

	// work remaining in [0, 1] as of settledAt; rate is progress per
	// second under the current contention. Between rate changes the
	// remaining work drains linearly, so it is settled lazily: only
	// when the rate changes or the job finishes.
	remaining float64
	rate      float64
	settledAt time.Duration
	// gen stamps the job's scheduled heap events; any state or rate
	// transition bumps it, invalidating events pushed under older
	// generations (they are discarded when popped). A recycled record
	// keeps counting from where its previous job left it.
	gen uint32
	// dedicated runtime (seconds) under the allocation, fixed at start.
	dedicatedSec float64
	// eligibleAt delays a requeued job's next start (backoff).
	eligibleAt time.Duration
	// runIdx is the job's slot in Cluster.running while it runs.
	runIdx int
}

// node tracks allocation state.
type node struct {
	id        int
	freeCores int
	exclusive bool   // currently held exclusively
	down      bool   // failed; excluded from placement until repaired
	jobs      []*Job // resident (running) jobs
}

// state is the node's scheduler state as sinfo prints it and the
// cluster_nodes gauge labels it.
func (n *node) state() string {
	switch {
	case n.down:
		return "down"
	case n.exclusive:
		return "allocated(excl)"
	case n.freeCores == 0:
		return "allocated"
	case len(n.jobs) > 0:
		return "mixed"
	}
	return "idle"
}

// avail is the part of a node's state that placement depends on.
func (n *node) avail() nodeAvail {
	return nodeAvail{free: n.freeCores, occupied: len(n.jobs), excl: n.exclusive || n.down}
}

// nodeAvail is what a node has to give: its live state (node.avail), or
// its state partway through earliestStart's replay of the releases. Down
// nodes release nothing and accept nothing, so they count as held
// exclusively.
type nodeAvail struct {
	free     int
	occupied int
	excl     bool
}

// offer is how many of j's tasks the node can take, given the job's
// per-node cap.
func (n nodeAvail) offer(j *Job, perNode int) int {
	if n.excl || (j.Spec.Exclusive && n.occupied > 0) {
		return 0
	}
	return min(n.free, perNode)
}

// release is one running job's share of one node coming free at the
// job's predicted end.
type release struct {
	at    time.Duration
	node  int
	cores int
}

// Cluster is the simulated system.
type Cluster struct {
	machine perfmodel.Machine
	nodes   []*node
	// records holds the retained records at index id−1 while retention is
	// on, for the calls that take an id (Status, Cancel,
	// AttachAccounting) and for Jobs and Sacct. Ids are dense from 1 and
	// never reused; a requeued job keeps its id. With retention off it is
	// nil: the live set is order + running, and those calls scan it. The
	// event path reaches a job through its heap entry, order, running or
	// its nodes, never by id.
	records []*Job
	// free holds records evicted with retention off, for enqueue to
	// reuse with their node arrays. Stale heap entries may still point
	// at them; the generation keeps those stale.
	free []*Job
	// running holds the currently-running jobs, each at its runIdx, so
	// rate recomputation and backfill reservations never scan the
	// retained records. A finishing job's slot is refilled from the end:
	// the order depends on the event history alone.
	running []*Job
	order   []*Job // pending jobs in submission order
	nextID  int
	now     time.Duration
	// checkedNow is now at the last CheckInvariants call, which fails
	// if virtual time has run backwards since.
	checkedNow time.Duration
	// atFixpoint says the pending queue is as a scheduling pass left it
	// under the current clock, policy and scan cap: schedule sets it and
	// whatever moves one of the three clears it. CheckInvariants checks
	// the fixpoint only then.
	atFixpoint bool

	// events is the unified min-heap (completions, walltime kills,
	// requeue expiries, node failures/repairs); eventSeq numbers the
	// node events, whose order at one instant is their push order.
	events   []simEvent
	eventSeq uint64
	// probePops/probeStale count dispatched and discarded heap pops;
	// regression tests pin single-pop-per-event behaviour with them.
	probePops  int
	probeStale int

	// kernelRunning counts running jobs with a contention kernel; when
	// zero, occupancy changes cannot move any job's rate and the
	// recompute pass is skipped entirely.
	kernelRunning int
	// demand is the per-node bandwidth-demand scratch buffer reused by
	// recomputeRates.
	demand []float64
	// rateScratch holds the running jobs sorted by id, the order
	// recomputeRates sums floats in.
	rateScratch []*Job

	// Scratch of the scheduling pass, so that a pass which starts no job
	// allocates nothing: place's candidate nodes, and earliestStart's
	// release list and per-node replay state.
	cand   []*node
	rel    []release
	replay []nodeAvail

	policy Policy
	// backfillLimit caps how many pending jobs past the head one
	// scheduling pass examines for backfill (0 = unlimited), like
	// SLURM's bf_max_job_test. At saturation the queue is long and an
	// uncapped scan is quadratic in queue depth.
	backfillLimit int

	// retainFinished keeps terminal jobs in records for Status / Jobs /
	// Sacct (the default). Workload streaming turns it off so memory
	// stays bounded by in-flight jobs.
	retainFinished bool

	agg statsAgg
}

// maxDuration is the "never" sentinel for event-time computations.
const maxDuration = time.Duration(math.MaxInt64)

// New creates a cluster of n identical nodes.
func New(n int, m perfmodel.Machine) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: %d nodes", n)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{
		machine:        m,
		nextID:         1,
		retainFinished: true,
		demand:         make([]float64, n),
		cand:           make([]*node, 0, n),
		replay:         make([]nodeAvail, n),
	}
	for i := 0; i < n; i++ {
		c.nodes = append(c.nodes, &node{id: i, freeCores: m.CoresPerNode})
	}
	return c, nil
}

// Now returns the current virtual time.
func (c *Cluster) Now() time.Duration { return c.now }

// SetPolicy selects the scheduling policy. Changing it mid-run applies
// from the next scheduling pass.
func (c *Cluster) SetPolicy(p Policy) { c.policy, c.atFixpoint = p, false }

// SetBackfillLimit caps the backfill scan depth past the queue head
// (0 = unlimited), like SLURM's bf_max_job_test. Saturation sweeps set
// it so a diverging queue cannot make every event quadratic.
func (c *Cluster) SetBackfillLimit(n int) { c.backfillLimit, c.atFixpoint = n, false }

// SetRetainFinished controls whether terminal jobs are kept. With
// retention off, finished jobs are evicted as soon as they can no longer
// be requeued: Stats stays exact (it accumulates incrementally), but
// Status/Jobs/Sacct only see live jobs. Streaming workloads turn
// retention off so memory is bounded by in-flight jobs. Retention is
// chosen once, before the first Submit; a later call is a programmer
// error and panics.
func (c *Cluster) SetRetainFinished(keep bool) {
	if c.nextID > 1 {
		panic("cluster: SetRetainFinished after the first Submit")
	}
	c.retainFinished = keep
}

// LiveJobs reports how many job records the cluster holds — with
// retention off this is the in-flight set (pending + running), which the
// workload memory-bound test asserts stays small while millions of jobs
// stream through.
func (c *Cluster) LiveJobs() int {
	if c.retainFinished {
		return len(c.records)
	}
	return len(c.order) + len(c.running)
}

// held returns the records the cluster holds as two runs: with retention
// on, the index in id order; with it off, the pending jobs in queue order
// and the running ones.
func (c *Cluster) held() [2][]*Job {
	if c.retainFinished {
		return [2][]*Job{c.records}
	}
	return [2][]*Job{c.order, c.running}
}

// lookup finds the held record of job id, or nil: an index read with
// retention on, a scan of the live set with it off. The event path never
// calls it. The scan runs newest first: a job just submitted sits at the
// back of the queue, or of the running set if it started at once.
func (c *Cluster) lookup(id int) *Job {
	if c.retainFinished {
		if id < 1 || id > len(c.records) {
			return nil
		}
		return c.records[id-1]
	}
	for _, run := range c.held() {
		for i := len(run) - 1; i >= 0; i-- {
			if run[i].ID == id {
				return run[i]
			}
		}
	}
	return nil
}

// Submit queues a job and immediately tries to schedule, returning the
// job id (like `sbatch` printing "Submitted batch job N").
func (c *Cluster) Submit(spec JobSpec) (int, error) {
	j, err := c.enqueue(spec)
	if err != nil {
		return 0, err
	}
	c.schedule()
	return j.ID, nil
}

// enqueue validates spec and appends the new job to the pending queue.
func (c *Cluster) enqueue(spec JobSpec) (*Job, error) {
	if spec.Tasks <= 0 {
		return nil, fmt.Errorf("cluster: job %q requests %d tasks", spec.Name, spec.Tasks)
	}
	perNode := spec.TasksPerNode
	if perNode == 0 {
		perNode = c.machine.CoresPerNode
	}
	if perNode > c.machine.CoresPerNode {
		return nil, fmt.Errorf("cluster: %d tasks per node exceeds %d cores", perNode, c.machine.CoresPerNode)
	}
	needNodes := (spec.Tasks + perNode - 1) / perNode
	if needNodes > len(c.nodes) {
		return nil, fmt.Errorf("cluster: job needs %d nodes, cluster has %d", needNodes, len(c.nodes))
	}
	if spec.Kernel == nil && spec.BaseTime <= 0 {
		return nil, fmt.Errorf("cluster: job %q has neither kernel nor base time", spec.Name)
	}
	var j *Job
	if n := len(c.free); n > 0 {
		j, c.free = c.free[n-1], c.free[:n-1]
	} else {
		j = new(Job)
	}
	*j = Job{ID: c.nextID, Spec: spec, State: Pending, SubmitTime: c.now, remaining: 1,
		gen: j.gen + 1, tasksOn: j.tasksOn[:0]}
	c.nextID++
	if c.retainFinished {
		// Doubling, not append's quarter steps past 256 slots: the copies
		// of a long retained drain's index then cost ~16 B a job, not ~45.
		if len(c.records) == cap(c.records) {
			c.records = slices.Grow(c.records, len(c.records))
		}
		c.records = append(c.records, j)
	}
	c.order = append(c.order, j)
	c.agg.submitted++
	c.agg.offeredCoreSec += float64(spec.Tasks) * spec.BaseTime.Seconds()
	return j, nil
}

// Cancel removes a pending job or kills a running one (`scancel`).
func (c *Cluster) Cancel(id int) error {
	j := c.lookup(id)
	if j == nil {
		return fmt.Errorf("cluster: no job %d", id)
	}
	switch j.State {
	case Pending:
		j.State = Cancelled
		j.EndTime = c.now
		j.gen++ // invalidate a pending requeue-backoff event
		c.dropPendingIdx(slices.Index(c.order, j))
		c.accountTerminal(j, false)
		c.evict(j)
	case Running:
		c.finish(j, Cancelled)
		c.evict(j)
	default:
		return fmt.Errorf("cluster: job %d already %v", id, j.State)
	}
	c.schedule()
	return nil
}

// Status returns a copy of the job record. With retention off, finished
// jobs are evicted and no longer found.
func (c *Cluster) Status(id int) (Job, error) {
	j := c.lookup(id)
	if j == nil {
		return Job{}, fmt.Errorf("cluster: no job %d", id)
	}
	return j.copyOut(), nil
}

// copyOut copies the record for a caller. The node list is cloned: the
// record's array is overwritten by its next placement, and with
// retention off that may be another job's.
func (j *Job) copyOut() Job {
	out := *j
	out.Nodes = slices.Clone(j.Nodes)
	return out
}

// dropPendingIdx removes the i-th pending entry (the scheduler already
// knows the index; re-scanning a saturated queue per start is wasted).
// slices.Delete zeroes the vacated tail slot, so the queue's spare
// capacity never pins an evicted job.
func (c *Cluster) dropPendingIdx(i int) {
	c.order = slices.Delete(c.order, i, i+1)
}

// evict keeps a terminal job's record for reuse when retention is off.
// The job has already left order and running, so nothing holds it.
func (c *Cluster) evict(j *Job) {
	if c.retainFinished {
		return
	}
	switch j.State {
	case Completed, Cancelled, TimedOut, NodeFail:
		c.free = append(c.free, j)
	}
}

// perNodeCap is the most of j's tasks one node may take.
func (c *Cluster) perNodeCap(j *Job) int {
	if j.Spec.TasksPerNode == 0 {
		return c.machine.CoresPerNode
	}
	return j.Spec.TasksPerNode
}

// canPlace reports whether the job fits under current state. Placement
// takes what each usable node offers until the job is covered, so whether
// it fits is a sum: no candidate order, nothing built.
func (c *Cluster) canPlace(j *Job) bool {
	perNode := c.perNodeCap(j)
	left := j.Spec.Tasks
	for _, n := range c.nodes {
		if left -= n.avail().offer(j, perNode); left <= 0 {
			return true
		}
	}
	return false
}

// place computes the allocation of a job that canPlace accepted under
// this same state: tasks pack onto the emptiest nodes first (to leave
// room) for shared jobs and onto fully idle nodes for exclusive jobs. The
// node ids and the per-node task counts share the record's array, so a
// pass allocates only for a record's first placement or a wider one.
func (c *Cluster) place(j *Job) (nodes, tasks []int) {
	perNode := c.perNodeCap(j)
	c.cand = c.cand[:0]
	last := 0 // the largest offer: the first node taken makes it
	for _, n := range c.nodes {
		if o := n.avail().offer(j, perNode); o > 0 {
			c.cand = append(c.cand, n)
			last = max(last, o)
		}
	}
	// Only the k nodes taken need ordering. Offers never grow along the
	// order, so ⌈left/last⌉ more nodes is a lower bound on what the job
	// still needs: while that keeps k within about log₂ of the candidate
	// count, pick each node with one pass; past it, sorting the rest is
	// cheaper.
	cand := c.cand
	most := bits.Len(uint(len(cand)))
	k, left := 0, j.Spec.Tasks
	for sorted := false; left > 0; k++ {
		switch {
		case sorted:
		case k+(left+last-1)/last > most:
			slices.SortFunc(cand[k:], freeOrder)
			sorted = true
		default:
			best := k
			for i := k + 1; i < len(cand); i++ {
				if freeOrder(cand[i], cand[best]) < 0 {
					best = i
				}
			}
			cand[k], cand[best] = cand[best], cand[k]
		}
		last = cand[k].avail().offer(j, perNode)
		left -= last
	}
	buf := j.tasksOn[:0]
	if cap(buf) < 2*k {
		buf = make([]int, 2*k)
	}
	tasks, nodes = buf[:k], buf[k:2*k:2*k]
	left = j.Spec.Tasks
	for i, n := range cand[:k] {
		fit := min(n.avail().offer(j, perNode), left)
		nodes[i], tasks[i] = n.id, fit
		left -= fit
	}
	return nodes, tasks
}

// freeOrder is the placement order: most free cores first, which gives
// balanced placements, ties to the lower id.
func freeOrder(a, b *node) int {
	if a.freeCores != b.freeCores {
		return b.freeCores - a.freeCores
	}
	return a.id - b.id
}

// schedule starts jobs according to the active policy. PolicyBackfill is
// FIFO with EASY backfill: the head pending job gets a reservation at its
// earliest possible start; later jobs may start now only if their
// walltime estimate finishes before that reservation. PolicyFIFO is the
// same scan with no backfill: it stops at the first eligible job that
// cannot be placed. It returns at the fixpoint, where a fresh scan would
// start nothing.
func (c *Cluster) schedule() {
	for c.scan() {
	}
	c.atFixpoint = true
}

// scan walks the pending queue once, starting every job that may start,
// and reports whether the queue must be walked again from its head. A
// start only takes resources, so a job passed over earlier in the scan
// still may not start, and the scan goes on at the next job:
//   - after the head starts, the next eligible job is the head, with a
//     reservation of its own;
//   - after a backfilled job starts, the head's reservation stands: the
//     job gives back all it took by now+TimeLimit ≤ headStart.
//
// A backfilled kernel job is the exception. Its start recomputes the
// running jobs' rates, which can push the head's reservation later and
// let a job passed over for it start, so the scan stops there and asks
// for another.
func (c *Cluster) scan() bool {
	// The head is the first eligible pending job: it holds the
	// reservation. A requeued job still in backoff is not startable and
	// holds no reservation either, wherever it sits in the queue.
	var head *Job
	headStartDone := false
	var headStart time.Duration
	// bound caps what any job can be offered until the next start; it is
	// computed at the first candidate past the head, so a scan that stops
	// at its head pays nothing for it.
	bound := -1
	scanned := 0
	for idx := 0; idx < len(c.order); idx++ {
		j := c.order[idx]
		if j.eligibleAt > c.now {
			continue
		}
		if head == nil {
			head = j
		} else {
			if c.policy == PolicyFIFO {
				return false
			}
			scanned++
			if c.backfillLimit > 0 && scanned > c.backfillLimit {
				return false
			}
			if j.Spec.TimeLimit == 0 {
				continue // no estimate: never backfill
			}
			if bound < 0 {
				bound = c.freeBound()
			}
			if j.Spec.Tasks > bound {
				continue
			}
		}
		if !c.canPlace(j) {
			continue
		}
		if j != head {
			// The head was examined first under this same state and did
			// not fit, so the candidate must provably finish before the
			// head's reservation.
			if !headStartDone {
				headStartDone = true
				headStart = c.earliestStart(head)
			}
			if c.now+j.Spec.TimeLimit > headStart {
				continue
			}
		}
		nodes, tasks := c.place(j)
		c.start(j, nodes, tasks)
		c.dropPendingIdx(idx)
		idx--
		bound = -1
		switch {
		case j == head:
			head, headStartDone, scanned = nil, false, 0
		case j.Spec.Kernel != nil:
			return true
		default:
			scanned--
		}
	}
	return false
}

// freeBound is the free cores on nodes that are neither down nor held
// exclusively: no job can be offered more.
func (c *Cluster) freeBound() int {
	free := 0
	for _, n := range c.nodes {
		if a := n.avail(); !a.excl {
			free += a.free
		}
	}
	return free
}

// earliestStart estimates when the head job could start, assuming running
// jobs end at their current predicted completion (walltime-limit capped)
// and no further arrivals. The estimate is float-derived from c.now, so it
// must not be carried from one virtual time to another: a cached value
// would sit an ulp away from the completion events on the heap.
func (c *Cluster) earliestStart(head *Job) time.Duration {
	c.rel = c.rel[:0]
	for _, j := range c.running {
		eta := c.now + c.predictRemaining(j)
		for i, nid := range j.Nodes {
			// An exclusive job frees its whole node, as finish does.
			cores := j.tasksOn[i]
			if j.Spec.Exclusive {
				cores = c.machine.CoresPerNode
			}
			c.rel = append(c.rel, release{at: eta, node: nid, cores: cores})
		}
	}
	// Replay order: by time, ties releasing lower node ids first. Two
	// releases of one node at one instant may come in either order; the
	// answer is that instant both ways.
	slices.SortFunc(c.rel, func(a, b release) int {
		if d := cmp.Compare(a.at, b.at); d != 0 {
			return d
		}
		return a.node - b.node
	})
	// Replay releases until the head fits; short counts the tasks the
	// nodes cannot take yet.
	perNode := c.perNodeCap(head)
	short := head.Spec.Tasks
	for i, n := range c.nodes {
		c.replay[i] = n.avail()
		short -= c.replay[i].offer(head, perNode)
	}
	if short <= 0 {
		return c.now
	}
	for _, r := range c.rel {
		n := &c.replay[r.node]
		short += n.offer(head, perNode)
		n.free += r.cores
		if n.occupied > 0 {
			n.occupied--
		}
		if n.occupied == 0 {
			n.excl = false
		}
		short -= n.offer(head, perNode)
		if short <= 0 {
			return r.at
		}
	}
	return maxDuration // never under current load
}

// predictRemaining estimates a running job's remaining time at current
// rates, capped by its time limit. It reads the lazily-settled progress
// without mutating it: the job's scheduled completion event was computed
// from (settledAt, remaining, rate), and re-settling here would nudge
// those floats by an ulp and detach the estimate from the event.
func (c *Cluster) predictRemaining(j *Job) time.Duration {
	if j.rate <= 0 {
		return maxDuration
	}
	rem := j.remaining
	if j.State == Running && c.now > j.settledAt {
		rem -= j.rate * (c.now - j.settledAt).Seconds()
		if rem < 0 {
			rem = 0
		}
	}
	remDur := durationFromSeconds(rem / j.rate)
	if j.Spec.TimeLimit > 0 {
		used := c.now - j.StartTime
		if lim := j.Spec.TimeLimit - used; lim < remDur {
			remDur = lim
		}
	}
	return remDur
}

// start allocates and launches a job.
func (c *Cluster) start(j *Job, nodes, tasks []int) {
	j.State = Running
	j.StartTime = c.now
	j.Nodes = nodes
	j.NumNodes = len(nodes)
	j.tasksOn = tasks
	j.remaining = 1
	j.settledAt = c.now
	j.rate = 0 // a requeued job must not inherit its previous run's rate
	for i, nid := range nodes {
		n := c.nodes[nid]
		n.freeCores -= tasks[i]
		n.jobs = append(n.jobs, j)
		if j.Spec.Exclusive {
			n.exclusive = true
			n.freeCores = 0
		}
	}
	j.runIdx = len(c.running)
	c.running = append(c.running, j)
	j.dedicatedSec = c.dedicatedSeconds(j)
	if j.Spec.Kernel != nil {
		c.kernelRunning++
		c.recomputeRates()
		return
	}
	// Fixed-duration job: contention never moves its rate; schedule its
	// lifetime events once, here.
	if j.dedicatedSec <= 0 {
		j.rate = math.Inf(1)
	} else {
		j.rate = 1 / j.dedicatedSec
	}
	c.pushJobEvents(j)
}

// dedicatedSeconds computes the job's runtime on its allocation with no
// co-runners.
func (c *Cluster) dedicatedSeconds(j *Job) float64 {
	if j.Spec.Kernel == nil {
		return j.Spec.BaseTime.Seconds()
	}
	d, err := c.machine.Time(*j.Spec.Kernel, perfmodel.Placement{
		Ranks: j.Spec.Tasks,
		Nodes: len(j.Nodes),
	})
	if err != nil {
		// Fall back to base time; Submit validated shapes, so this is
		// a modeling corner (e.g. ranks<nodes cannot happen here).
		return math.Max(j.Spec.BaseTime.Seconds(), 1)
	}
	return d.Seconds()
}

// finish releases a job's allocation.
func (c *Cluster) finish(j *Job, state JobState) {
	j.State = state
	j.EndTime = c.now
	j.gen++ // invalidate scheduled completion/timeout events
	for i, nid := range j.Nodes {
		n := c.nodes[nid]
		if j.Spec.Exclusive {
			n.exclusive = false
			n.freeCores = c.machine.CoresPerNode
		} else {
			n.freeCores += j.tasksOn[i]
		}
		if k := slices.Index(n.jobs, j); k >= 0 {
			n.jobs = slices.Delete(n.jobs, k, k+1)
		}
	}
	j.Nodes, j.tasksOn = nil, j.tasksOn[:0]
	last := len(c.running) - 1
	moved := c.running[last]
	c.running[j.runIdx], moved.runIdx = moved, j.runIdx
	c.running[last] = nil
	c.running = c.running[:last]
	c.accountTerminal(j, true)
	if j.Spec.Kernel != nil {
		c.kernelRunning--
	}
	c.recomputeRates()
}

// recomputeRates updates every running kernel job's progress rate from
// the contention model: a job's share on a node is NodeBW/totalDemand
// when the bus is oversubscribed; its rate is dedicated/contended
// runtime, and multi-node jobs run at their worst node's rate. Jobs
// whose rate moved get their work settled and fresh events scheduled.
// Fixed-duration (nil-kernel) jobs neither exert nor feel contention,
// so when no kernel job is running the pass is skipped entirely.
func (c *Cluster) recomputeRates() {
	if c.kernelRunning == 0 {
		return
	}
	// Total bandwidth demand per node, summed in job-id order so float
	// rounding is identical run to run.
	for i := range c.demand {
		c.demand[i] = 0
	}
	c.rateScratch = append(c.rateScratch[:0], c.running...)
	slices.SortFunc(c.rateScratch, func(a, b *Job) int { return a.ID - b.ID })
	for _, j := range c.rateScratch {
		if j.Spec.Kernel == nil {
			continue
		}
		for i, nid := range j.Nodes {
			jb := perfmodel.Job{Kernel: *j.Spec.Kernel, Ranks: j.tasksOn[i]}
			c.demand[nid] += c.machine.BandwidthDemand(jb)
		}
	}
	for _, j := range c.rateScratch {
		rate := j.rate
		switch {
		case j.dedicatedSec <= 0:
			rate = math.Inf(1)
		case j.Spec.Kernel == nil:
			// Fixed-duration job: contention does not affect it.
			rate = 1 / j.dedicatedSec
		default:
			// Worst bandwidth share across the job's nodes.
			share := 1.0
			for i, nid := range j.Nodes {
				jb := perfmodel.Job{Kernel: *j.Spec.Kernel, Ranks: j.tasksOn[i]}
				my := c.machine.BandwidthDemand(jb)
				if c.demand[nid] > c.machine.NodeBW && my > 0 {
					if s := c.machine.NodeBW / c.demand[nid]; s < share {
						share = s
					}
				}
			}
			contended, err := c.machine.Time(*j.Spec.Kernel, perfmodel.Placement{
				Ranks:          j.Spec.Tasks,
				Nodes:          maxi(len(j.Nodes), 1),
				BandwidthShare: share,
			})
			if err != nil || contended <= 0 {
				rate = 1 / j.dedicatedSec
			} else {
				rate = 1 / contended.Seconds()
			}
		}
		if rate != j.rate {
			// Settle drained work at the old rate before switching, then
			// reschedule the job's events under the new trajectory.
			c.settle(j)
			j.rate = rate
			c.pushJobEvents(j)
		}
	}
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}
