package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/perfmodel"
)

// This file keeps the allocating scheduling pass alive as a differential
// oracle. refSchedule, refTryPlace and refEarliestStart are the pass as it
// stood before it was made allocation-free (the candidate list, sort.Slice
// and replay arrays built afresh on every call, the head re-checked with a
// full tryPlace), carrying two behavioural fixes: the reservation holder
// and the scan cap start at the first eligible pending job (landed with
// the rewrite), and an exclusive job's release in refEarliestStart frees
// its whole node, not its task count. Otherwise only the element types of
// c.order and c.running differ from that text. ScheduleTwin drives two
// clusters through the same operations, one scheduled by the production
// pass and one by the reference, and requires identical schedules after
// every event.

func refTryPlace(c *Cluster, j *Job) ([]int, []int) {
	perNode := j.Spec.TasksPerNode
	if perNode == 0 {
		perNode = c.machine.CoresPerNode
	}
	var candidates []*node
	for _, n := range c.nodes {
		if n.exclusive || n.down {
			continue
		}
		if j.Spec.Exclusive {
			if len(n.jobs) == 0 {
				candidates = append(candidates, n)
			}
			continue
		}
		if n.freeCores > 0 {
			candidates = append(candidates, n)
		}
	}
	sort.Slice(candidates, func(a, b int) bool {
		if candidates[a].freeCores != candidates[b].freeCores {
			return candidates[a].freeCores > candidates[b].freeCores
		}
		return candidates[a].id < candidates[b].id
	})
	var nodes, tasks []int
	left := j.Spec.Tasks
	for _, n := range candidates {
		if left == 0 {
			break
		}
		fit := n.freeCores
		if fit > perNode {
			fit = perNode
		}
		if fit <= 0 {
			continue
		}
		if fit > left {
			fit = left
		}
		nodes = append(nodes, n.id)
		tasks = append(tasks, fit)
		left -= fit
	}
	if left > 0 {
		return nil, nil
	}
	return nodes, tasks
}

func refSchedule(c *Cluster) {
	if c.policy == PolicyFIFO {
		refScheduleFIFO(c)
		return
	}
	for {
		started := false
		headStartDone := false
		var headCanStart bool
		var headStart time.Duration
		var head *Job // the fix: the first eligible job, not order[0]
		scanned := 0
		for idx := 0; idx < len(c.order); idx++ {
			j := c.order[idx]
			if j.eligibleAt > c.now {
				continue
			}
			if head == nil {
				head = j
			} else {
				scanned++
				if c.backfillLimit > 0 && scanned > c.backfillLimit {
					break
				}
			}
			nodes, tasks := refTryPlace(c, j)
			if nodes == nil {
				continue
			}
			fits := j == head
			if !fits {
				if !headStartDone {
					headStartDone = true
					if hn, _ := refTryPlace(c, head); hn != nil {
						headCanStart = true
					} else {
						headStart = refEarliestStart(c, head)
					}
				}
				if headCanStart {
					fits = true
				} else if j.Spec.TimeLimit == 0 {
					fits = false
				} else {
					fits = c.now+j.Spec.TimeLimit <= headStart
				}
			}
			if fits {
				c.start(j, nodes, tasks)
				c.dropPendingIdx(idx)
				started = true
				break
			}
		}
		if !started {
			return
		}
	}
}

func refScheduleFIFO(c *Cluster) {
	for {
		idx := -1
		for i, j := range c.order {
			if j.eligibleAt <= c.now {
				idx = i
				break
			}
		}
		if idx < 0 {
			return
		}
		j := c.order[idx]
		nodes, tasks := refTryPlace(c, j)
		if nodes == nil {
			return
		}
		c.start(j, nodes, tasks)
		c.dropPendingIdx(idx)
	}
}

func refEarliestStart(c *Cluster, head *Job) time.Duration {
	type release struct {
		at    time.Duration
		node  int
		cores int
	}
	var rel []release
	for _, j := range c.running {
		eta := c.now + c.predictRemaining(j)
		for i, nid := range j.Nodes {
			cores := j.tasksOn[i]
			if j.Spec.Exclusive {
				cores = c.machine.CoresPerNode // the fix: the whole node comes free
			}
			rel = append(rel, release{at: eta, node: nid, cores: cores})
		}
	}
	sort.Slice(rel, func(a, b int) bool {
		if rel[a].at != rel[b].at {
			return rel[a].at < rel[b].at
		}
		return rel[a].node < rel[b].node
	})
	free := make([]int, len(c.nodes))
	excl := make([]bool, len(c.nodes))
	occupied := make([]int, len(c.nodes))
	for i, n := range c.nodes {
		free[i] = n.freeCores
		excl[i] = n.exclusive || n.down
		occupied[i] = len(n.jobs)
	}
	fits := func() bool {
		perNode := head.Spec.TasksPerNode
		if perNode == 0 {
			perNode = c.machine.CoresPerNode
		}
		left := head.Spec.Tasks
		for i := range free {
			if excl[i] {
				continue
			}
			if head.Spec.Exclusive && occupied[i] > 0 {
				continue
			}
			fit := free[i]
			if fit > perNode {
				fit = perNode
			}
			left -= fit
		}
		return left <= 0
	}
	if fits() {
		return c.now
	}
	for _, r := range rel {
		free[r.node] += r.cores
		if occupied[r.node] > 0 {
			occupied[r.node]--
		}
		if occupied[r.node] == 0 {
			excl[r.node] = false
		}
		if fits() {
			return r.at
		}
	}
	return time.Duration(math.MaxInt64)
}

// ScheduleTwin is a pair of clusters fed the same operations. It is
// exported to the package's external tests, which can import
// internal/workload (this package's own tests cannot: workload imports
// cluster).
type ScheduleTwin struct {
	t        testing.TB
	label    string
	got, ref *Cluster
	events   int
}

// NewScheduleTwin builds the pair with one policy, backfill scan cap and
// retention setting. With retention off the production cluster recycles
// evicted records; the reference never does (the twin drops its free list
// after every event), so a record that carries anything of its previous
// job into the next one shows as a difference.
func NewScheduleTwin(t testing.TB, label string, nodes int, policy Policy, backfillLimit int, retain bool) *ScheduleTwin {
	t.Helper()
	w := &ScheduleTwin{t: t, label: label}
	for _, cp := range []**Cluster{&w.got, &w.ref} {
		c, err := New(nodes, perfmodel.DefaultMachine())
		if err != nil {
			t.Fatal(err)
		}
		c.SetPolicy(policy)
		c.SetBackfillLimit(backfillLimit)
		c.SetRetainFinished(retain)
		*cp = c
	}
	return w
}

// Submit submits spec to both clusters and returns the job's id.
func (w *ScheduleTwin) Submit(spec JobSpec) int {
	w.t.Helper()
	id, errGot := w.got.Submit(spec)
	_, errRef := w.ref.enqueue(spec)
	refSchedule(w.ref)
	if (errGot == nil) != (errRef == nil) {
		w.t.Fatalf("%s: submit %+v: production err %v, reference err %v", w.label, spec, errGot, errRef)
	}
	w.compare("submit")
	return id
}

// Cancel cancels job id on both clusters. The reference cancels with its
// pending queue hidden but for the job itself, so the production pass the
// cancel ends in finds nothing to start, and the reference pass runs in
// its place.
func (w *ScheduleTwin) Cancel(id int) {
	w.t.Helper()
	errGot := w.got.Cancel(id)
	hidden := w.ref.order
	j := w.ref.lookup(id) // before the queue is hidden: lookup may scan it
	w.ref.order = nil
	if j != nil && j.State == Pending {
		w.ref.order = []*Job{j}
		hidden = slices.DeleteFunc(hidden, func(p *Job) bool { return p == j })
	}
	errRef := w.ref.Cancel(id)
	w.ref.order = hidden
	w.ref.free = nil
	if errRef == nil {
		refSchedule(w.ref)
	}
	if (errGot == nil) != (errRef == nil) {
		w.t.Fatalf("%s: cancel %d: production err %v, reference err %v", w.label, id, errGot, errRef)
	}
	w.compare("cancel")
}

// ScheduleNodeFail schedules a node failure and its repair on both clusters.
func (w *ScheduleTwin) ScheduleNodeFail(id int, failAt, repairAt time.Duration) {
	w.t.Helper()
	for _, c := range []*Cluster{w.got, w.ref} {
		if err := c.ScheduleNodeFail(id, failAt); err != nil {
			w.t.Fatal(err)
		}
		if err := c.ScheduleNodeRepair(id, repairAt); err != nil {
			w.t.Fatal(err)
		}
	}
}

// Step dispatches the next event on both clusters. The reference cluster
// steps with its pending queue hidden, so the production pass that an
// event ends in finds nothing to start; the queue then comes back (with
// whatever the event requeued, in backoff, behind it) and the reference
// pass runs in its place. Failing a down node or repairing a healthy one
// ends in no pass at all.
func (w *ScheduleTwin) Step() bool {
	w.t.Helper()
	okGot := w.got.Step()
	ev, _ := w.ref.peekValid()
	noPass := ev.class() == evNode && w.ref.nodes[ev.node()].down == ev.fail()
	hidden := w.ref.order
	w.ref.order = nil
	okRef := w.ref.Step()
	w.ref.order = append(hidden, w.ref.order...)
	w.ref.free = nil
	if okRef && !noPass {
		refSchedule(w.ref)
	}
	if okGot != okRef {
		w.t.Fatalf("%s: after %d events production Step = %v, reference Step = %v", w.label, w.events, okGot, okRef)
	}
	if okGot {
		w.events++
		w.compare("event")
	}
	return okGot
}

// RunUntil mirrors Cluster.RunUntil, one compared Step at a time.
func (w *ScheduleTwin) RunUntil(t time.Duration) {
	w.t.Helper()
	for {
		ev, ok := w.got.peekValid()
		if !ok || ev.at > t || !w.Step() {
			break
		}
	}
	w.got.advanceTo(t)
	w.ref.advanceTo(t)
}

// Drain steps both clusters until no event is left and returns how many
// events the twin has dispatched in all.
func (w *ScheduleTwin) Drain() int {
	w.t.Helper()
	for w.Step() {
	}
	return w.events
}

// compare requires the two clusters to agree on everything the schedule
// determines: the clock, every job's fingerprint and allocation, the
// pending order, the stats and the production side's invariants.
func (w *ScheduleTwin) compare(after string) {
	w.t.Helper()
	fail := func(format string, args ...any) {
		w.t.Helper()
		w.t.Fatalf("%s: %s %d: %s", w.label, after, w.events, fmt.Sprintf(format, args...))
	}
	if w.got.now != w.ref.now {
		fail("clock %v vs reference %v", w.got.now, w.ref.now)
	}
	if g, r := w.got.LiveJobs(), w.ref.LiveJobs(); g != r {
		fail("%d jobs vs reference %d", g, r)
	}
	for _, run := range w.got.held() {
		for _, g := range run {
			if g == nil {
				continue
			}
			id := g.ID
			r := w.ref.lookup(id)
			if r == nil {
				fail("job %d unknown to the reference", id)
			}
			// The fields of jobFingerprint, compared without formatting them
			// (this runs for every job after every event), and the allocation.
			if g.State != r.State || g.SubmitTime != r.SubmitTime || g.StartTime != r.StartTime ||
				g.EndTime != r.EndTime || g.NumNodes != r.NumNodes || g.Restarts != r.Restarts {
				fail("job %d:\n  production %s\n  reference  %s", id, jobFingerprint(*g), jobFingerprint(*r))
			}
			if !slices.Equal(g.Nodes, r.Nodes) || !slices.Equal(g.tasksOn, r.tasksOn) {
				fail("job %d allocation %v %v vs reference %v %v", id, g.Nodes, g.tasksOn, r.Nodes, r.tasksOn)
			}
		}
	}
	if len(w.got.order) != len(w.ref.order) {
		fail("%d pending vs reference %d", len(w.got.order), len(w.ref.order))
	}
	for i := range w.got.order {
		if g, r := w.got.order[i].ID, w.ref.order[i].ID; g != r {
			fail("pending[%d] is job %d vs reference %d", i, g, r)
		}
	}
	if gs, rs := w.got.Stats(), w.ref.Stats(); gs != rs {
		fail("stats:\n  production %+v\n  reference  %+v", gs, rs)
	}
	if err := w.got.CheckInvariants(); err != nil {
		fail("production invariants: %v", err)
	}
}

// oracleSpecs is randomSpecs with contention kernels on a fifth of the
// jobs and, when requeue is set, --requeue on half.
func oracleSpecs(rng *rand.Rand, nodes, n int, requeue bool) []JobSpec {
	stream := perfmodel.MemoryBoundKernel("stream", 5e11, 0.1)
	dgemm := perfmodel.ComputeBoundKernel("dgemm", 3e12, 100)
	specs := randomSpecs(rng, nodes, n)
	for i := range specs {
		switch rng.Intn(10) {
		case 0:
			specs[i].Kernel = &stream
		case 1:
			specs[i].Kernel = &dgemm
		}
		if requeue && rng.Intn(2) == 0 {
			specs[i].Requeue = true
			specs[i].MaxRequeues = 1 + rng.Intn(2)
		}
	}
	return specs
}

// ScheduleMatrix runs body once per policy, backfill scan cap and
// retention setting.
func ScheduleMatrix(t *testing.T, body func(t *testing.T, policy Policy, limit int, retain bool)) {
	for _, policy := range []Policy{PolicyBackfill, PolicyFIFO} {
		for _, limit := range []int{0, 1, 64} {
			if policy == PolicyFIFO && limit != 0 {
				continue // the cap only exists in the backfill scan
			}
			t.Run(fmt.Sprintf("%v/limit=%d", policy, limit), func(t *testing.T) {
				for _, retain := range []bool{true, false} {
					t.Run(fmt.Sprintf("retain=%v", retain), func(t *testing.T) {
						body(t, policy, limit, retain)
					})
				}
			})
		}
	}
}

// TestScheduleOracleRandom covers exclusive jobs, per-node caps, time
// limits and kernel jobs: a burst submitted up front so the queue is deep,
// then arrivals interleaved with events.
func TestScheduleOracleRandom(t *testing.T) {
	ScheduleMatrix(t, func(t *testing.T, policy Policy, limit int, retain bool) {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			nodes := 1 + rng.Intn(5)
			w := NewScheduleTwin(t, fmt.Sprintf("seed %d", seed), nodes, policy, limit, retain)
			specs := oracleSpecs(rng, nodes, 60, false)
			for _, s := range specs[:30] {
				w.Submit(s)
			}
			for _, s := range specs[30:] {
				w.RunUntil(w.got.now + time.Duration(rng.Intn(20))*time.Second)
				w.Submit(s)
			}
			if events := w.Drain(); events < len(specs) {
				t.Fatalf("seed %d: only %d events for %d jobs", seed, events, len(specs))
			}
		}
	})
}

// TestScheduleOracleFaults adds the fault plan: scheduled node failures
// and repairs under a mix in which half the jobs requeue, so jobs in
// backoff sit in the queue (at its front, too) while the pass runs.
func TestScheduleOracleFaults(t *testing.T) {
	ScheduleMatrix(t, func(t *testing.T, policy Policy, limit int, retain bool) {
		requeues := 0
		for seed := int64(20); seed <= 25; seed++ {
			rng := rand.New(rand.NewSource(seed))
			nodes := 2 + rng.Intn(3)
			w := NewScheduleTwin(t, fmt.Sprintf("seed %d", seed), nodes, policy, limit, retain)
			for k := 0; k < 4; k++ {
				failAt := time.Duration(5+11*k+rng.Intn(30)) * time.Second
				w.ScheduleNodeFail(rng.Intn(nodes), failAt, failAt+time.Duration(30+rng.Intn(60))*time.Second)
			}
			for _, s := range oracleSpecs(rng, nodes, 40, true) {
				w.Submit(s)
			}
			w.Drain()
			requeues += w.got.Stats().Requeues
		}
		if requeues == 0 {
			t.Fatal("the fault plans requeued no job: backoff never entered the queue")
		}
	})
}

// TestScheduleOracleCancel adds cancellations to the fault plan's mix,
// drawn from every id submitted so far: pending, running, requeued in
// backoff, finished and, with retention off, evicted ids whose record a
// later job now holds. With retention off the production cluster must
// actually have recycled records for the run to count.
func TestScheduleOracleCancel(t *testing.T) {
	ScheduleMatrix(t, func(t *testing.T, policy Policy, limit int, retain bool) {
		cancelled, reused := 0, 0
		for seed := int64(40); seed <= 45; seed++ {
			rng := rand.New(rand.NewSource(seed))
			nodes := 2 + rng.Intn(3)
			w := NewScheduleTwin(t, fmt.Sprintf("seed %d", seed), nodes, policy, limit, retain)
			for k := 0; k < 4; k++ {
				failAt := time.Duration(5+11*k+rng.Intn(30)) * time.Second
				w.ScheduleNodeFail(rng.Intn(nodes), failAt, failAt+time.Duration(30+rng.Intn(60))*time.Second)
			}
			var ids []int
			seen := map[*Job]bool{}
			for _, s := range oracleSpecs(rng, nodes, 60, true) {
				w.RunUntil(w.got.now + time.Duration(rng.Intn(15))*time.Second)
				id := w.Submit(s)
				ids = append(ids, id)
				if j := w.got.lookup(id); seen[j] {
					reused++
				} else {
					seen[j] = true
				}
				if rng.Intn(3) == 0 {
					victim := ids[rng.Intn(len(ids))]
					if j := w.got.lookup(victim); j != nil && (j.State == Pending || j.State == Running) {
						cancelled++
					}
					w.Cancel(victim)
				}
			}
			w.Drain()
		}
		if cancelled == 0 {
			t.Fatal("no cancel hit a live job")
		}
		if !retain && reused == 0 {
			t.Fatal("no record was recycled: the run never crossed a reused record")
		}
	})
}

// TestScheduleOracleRateChangeRescan builds the one case in which a start
// moves the head's reservation: a backfilled memory-bound kernel job lands
// on the node of a running one, the bus saturates, and the running job's
// predicted end, which the head waits for, moves later. A job passed over
// earlier in the same pass, because it would have outlasted the old
// reservation, now ends before the new one and must start in that pass.
func TestScheduleOracleRateChangeRescan(t *testing.T) {
	stream := func(seconds float64) *perfmodel.Kernel {
		// 8 ranks draw 96 GB/s of the node's 100: alone, a stream job
		// runs unslowed; two of them share the bus.
		k := perfmodel.MemoryBoundKernel("stream", seconds*96e9, 0.1)
		return &k
	}
	w := NewScheduleTwin(t, "rate change", 1, PolicyBackfill, 0, true)
	w.Submit(JobSpec{Name: "bus", Tasks: 8, Kernel: stream(1000)})
	head := w.Submit(JobSpec{Name: "head", Tasks: 32, BaseTime: time.Minute})
	passed := w.Submit(JobSpec{Name: "passed", Tasks: 1, BaseTime: time.Minute, TimeLimit: 1100 * time.Second})
	if j, _ := w.got.Status(passed); j.State != Pending {
		t.Fatalf("setup: %q is %v before the contention, want pending behind the head's reservation", j.Spec.Name, j.State)
	}
	w.Submit(JobSpec{Name: "contender", Tasks: 8, Kernel: stream(100), TimeLimit: 500 * time.Second})
	h, _ := w.got.Status(head)
	p, _ := w.got.Status(passed)
	if h.State != Pending || p.State != Running {
		t.Fatalf("after the contender started, the head is %v and %q %v; want pending and running", h.State, p.Spec.Name, p.State)
	}
	w.Drain()
}
