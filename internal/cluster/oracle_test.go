package cluster

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// This file keeps the pre-heap event engine alive as a differential
// oracle: stepLinear finds the next event by rescanning every running
// job (the original O(jobs)-per-event algorithm) and dispatches it
// through the same finish/schedule paths the heap engine uses. The
// differential tests drive two identical clusters — one with Step, one
// with stepLinear — through the same workload and require identical
// schedules. The heap engine replaced this scan; if the two ever
// disagree, the heap is wrong.

// oracleNodeEvent mirrors the old time-sorted node-event list.
type oracleNodeEvent struct {
	at   time.Duration
	node int
	fail bool
}

// oracle drives a Cluster with the linear-scan engine.
type oracle struct {
	c        *Cluster
	nodeEvs  []oracleNodeEvent
	nodeSeqs int
}

// scheduleNodeFail records a node failure in the oracle's own list (the
// cluster's heap still receives one via the public API, but the oracle
// never pops the heap).
func (o *oracle) scheduleNodeFail(id int, at time.Duration) {
	o.nodeEvs = append(o.nodeEvs, oracleNodeEvent{at: at, node: id, fail: true})
	o.sortNodeEvs()
}

func (o *oracle) scheduleNodeRepair(id int, at time.Duration) {
	o.nodeEvs = append(o.nodeEvs, oracleNodeEvent{at: at, node: id, fail: false})
	o.sortNodeEvs()
}

func (o *oracle) sortNodeEvs() {
	// Stable insertion order on ties, like the old sort.SliceStable.
	for i := len(o.nodeEvs) - 1; i > 0; i-- {
		if o.nodeEvs[i].at < o.nodeEvs[i-1].at {
			o.nodeEvs[i], o.nodeEvs[i-1] = o.nodeEvs[i-1], o.nodeEvs[i]
		}
	}
}

// nextJobEventLinear is the original scan: the earliest completion or
// walltime kill among running jobs. Iteration is in sorted job-id order
// (the old map iteration left ties nondeterministic; the heap breaks
// them by job id, so the oracle must too). Returns the event time, the
// victim, and whether it is a timeout.
func (o *oracle) nextJobEventLinear() (time.Duration, *Job, bool) {
	c := o.c
	byID := append([]*Job(nil), c.running...)
	for i := 1; i < len(byID); i++ { // insertion sort: tiny running sets
		for k := i; k > 0 && byID[k].ID < byID[k-1].ID; k-- {
			byID[k], byID[k-1] = byID[k-1], byID[k]
		}
	}
	nextAt := maxDuration
	var victim *Job
	var timeout bool
	for _, j := range byID {
		if eta, ok := c.completionETA(j); ok {
			if eta < nextAt {
				nextAt, victim, timeout = eta, j, false
			}
		}
		if j.Spec.TimeLimit > 0 {
			kill := j.StartTime + j.Spec.TimeLimit
			if kill < nextAt {
				nextAt, victim, timeout = kill, j, true
			}
		}
	}
	return nextAt, victim, timeout
}

// nextRequeueLinear is the original pending-queue scan for the earliest
// backoff expiry still in the future.
func (o *oracle) nextRequeueLinear() time.Duration {
	c := o.c
	at := maxDuration
	for _, j := range c.order {
		if j.eligibleAt > c.now && j.eligibleAt < at {
			at = j.eligibleAt
		}
	}
	return at
}

// step is the pre-heap Step: three scans, earliest event wins, node
// events break ties first, then requeue expiries, then job events.
func (o *oracle) step() bool {
	c := o.c
	jobAt, victim, timeout := o.nextJobEventLinear()
	nodeAt := maxDuration
	if len(o.nodeEvs) > 0 {
		nodeAt = o.nodeEvs[0].at
		if nodeAt < c.now {
			nodeAt = c.now
		}
	}
	reqAt := o.nextRequeueLinear()

	if nodeAt <= jobAt && nodeAt <= reqAt {
		if len(o.nodeEvs) == 0 {
			return false
		}
		ev := o.nodeEvs[0]
		o.nodeEvs = o.nodeEvs[1:]
		c.advanceTo(nodeAt)
		if ev.fail {
			c.FailNode(ev.node)
		} else {
			c.RepairNode(ev.node)
		}
		return true
	}
	if reqAt <= jobAt {
		if reqAt == maxDuration {
			return false
		}
		c.advanceTo(reqAt)
		c.schedule()
		return true
	}
	if victim == nil {
		return false
	}
	c.advanceTo(jobAt)
	c.settle(victim)
	if timeout {
		c.finish(victim, TimedOut)
	} else {
		victim.remaining = 0
		c.finish(victim, Completed)
	}
	c.schedule()
	return true
}

// drain runs the oracle engine to completion.
func (o *oracle) drain() int {
	n := 0
	for o.step() {
		n++
	}
	return n
}

// randomSpecs builds a reproducible mixed workload: shared/exclusive,
// per-node caps, time limits, contention kernels and fixed durations.
func randomSpecs(rng *rand.Rand, nodes, n int) []JobSpec {
	cores := 32
	specs := make([]JobSpec, 0, n)
	for i := 0; i < n; i++ {
		spec := JobSpec{
			Name:     fmt.Sprintf("j%d", i),
			Tasks:    1 + rng.Intn(nodes*cores),
			BaseTime: time.Duration(1+rng.Intn(90)) * time.Second,
		}
		if rng.Intn(3) == 0 {
			spec.TasksPerNode = 1 + rng.Intn(cores)
			need := (spec.Tasks + spec.TasksPerNode - 1) / spec.TasksPerNode
			if need > nodes {
				spec.TasksPerNode = 0
			}
		}
		if rng.Intn(4) == 0 {
			spec.Exclusive = true
		}
		if rng.Intn(2) == 0 {
			spec.TimeLimit = spec.BaseTime * time.Duration(1+rng.Intn(3))
		}
		specs = append(specs, spec)
	}
	return specs
}

// jobFingerprint captures everything schedule-observable about a job.
func jobFingerprint(j Job) string {
	return fmt.Sprintf("%d %v s=%v st=%v end=%v w=%d r=%d",
		j.ID, j.State, j.SubmitTime, j.StartTime, j.EndTime, j.NumNodes, j.Restarts)
}

// TestHeapVsLinearDifferential drives the heap engine and the linear
// oracle through identical random workloads and requires bit-identical
// schedules: same states, start/end times, widths and restarts for every
// job, and matching final stats.
func TestHeapVsLinearDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := 1 + rng.Intn(5)
		specs := randomSpecs(rng, nodes, 40)

		heap := newTestCluster(t, nodes)
		lin := newTestCluster(t, nodes)
		o := &oracle{c: lin}
		for _, s := range specs {
			_, errH := heap.Submit(s)
			_, errL := lin.Submit(s)
			if (errH == nil) != (errL == nil) {
				t.Fatalf("seed %d: submit divergence for %+v", seed, s)
			}
		}
		heap.Drain()
		o.drain()

		hj, lj := heap.Jobs(), lin.Jobs()
		if len(hj) != len(lj) {
			t.Fatalf("seed %d: %d vs %d jobs", seed, len(hj), len(lj))
		}
		for i := range hj {
			h, l := jobFingerprint(hj[i]), jobFingerprint(lj[i])
			if h != l {
				t.Errorf("seed %d job %d:\n  heap   %s\n  linear %s", seed, hj[i].ID, h, l)
			}
		}
		if hs, ls := heap.Stats(), lin.Stats(); hs != ls {
			t.Errorf("seed %d stats:\n  heap   %+v\n  linear %+v", seed, hs, ls)
		}
		if err := heap.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: heap invariants: %v", seed, err)
		}
	}
}

// TestHeapVsLinearWithFaults extends the differential to the
// node-failure/requeue path: scheduled failures and repairs, --requeue
// jobs with backoff, contention kernels in the mix.
func TestHeapVsLinearWithFaults(t *testing.T) {
	for seed := int64(20); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := 2 + rng.Intn(3)
		specs := randomSpecs(rng, nodes, 25)
		for i := range specs {
			if rng.Intn(2) == 0 {
				specs[i].Requeue = true
				specs[i].MaxRequeues = 1 + rng.Intn(2)
			}
		}

		heap := newTestCluster(t, nodes)
		lin := newTestCluster(t, nodes)
		o := &oracle{c: lin}
		// Distinct times keep node events unambiguous (the old engine
		// batched simultaneous node events into one step; the heap pops
		// them one per step — same schedule, different event counts).
		for k := 0; k < 3; k++ {
			id := rng.Intn(nodes)
			failAt := time.Duration(10+13*k+rng.Intn(40)) * time.Second
			repairAt := failAt + time.Duration(30+rng.Intn(60))*time.Second
			if err := heap.ScheduleNodeFail(id, failAt); err != nil {
				t.Fatal(err)
			}
			o.scheduleNodeFail(id, failAt)
			if err := heap.ScheduleNodeRepair(id, repairAt); err != nil {
				t.Fatal(err)
			}
			o.scheduleNodeRepair(id, repairAt)
		}
		for _, s := range specs {
			heap.Submit(s)
			lin.Submit(s)
		}
		heap.Drain()
		o.drain()

		hj, lj := heap.Jobs(), lin.Jobs()
		if len(hj) != len(lj) {
			t.Fatalf("seed %d: %d vs %d jobs", seed, len(hj), len(lj))
		}
		for i := range hj {
			h, l := jobFingerprint(hj[i]), jobFingerprint(lj[i])
			if h != l {
				t.Errorf("seed %d job %d:\n  heap   %s\n  linear %s", seed, hj[i].ID, h, l)
			}
		}
		if err := heap.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: heap invariants: %v", seed, err)
		}
	}
}

// TestRunUntilSinglePopPerEvent pins the fix for RunUntil's double work:
// the old engine computed nextEventTime() with a full scan and then let
// Step rediscover the same event with another scan. With the heap,
// RunUntil peeks the top in O(1) and Step pops exactly once per
// dispatched event — the probe counts every heap pop, so incremental
// stepping must cost exactly one pop per event, same as Drain.
func TestRunUntilSinglePopPerEvent(t *testing.T) {
	build := func() *Cluster {
		c := newTestCluster(t, 2)
		rng := rand.New(rand.NewSource(7))
		for _, s := range randomSpecs(rng, 2, 30) {
			c.Submit(s)
		}
		return c
	}

	drained := build()
	events := drained.Drain()
	drainPops, _ := drained.EventProbe()
	if drainPops != events {
		t.Fatalf("Drain dispatched %d events with %d pops", events, drainPops)
	}

	stepped := build()
	// Walk the clock forward in small slices; every RunUntil peeks the
	// heap instead of rescanning.
	for tick := time.Second; tick <= time.Hour; tick += time.Second {
		stepped.RunUntil(tick)
		if pops, _ := stepped.EventProbe(); pops > events {
			t.Fatalf("incremental stepping popped %d events, Drain needed %d", pops, events)
		}
	}
	stepped.Drain() // mop up anything past the one-hour horizon
	stepPops, stale := stepped.EventProbe()
	if stepPops != events {
		t.Fatalf("incremental stepping dispatched %d events, Drain dispatched %d", stepPops, events)
	}
	// Lazy invalidation discards stale entries, but churn must stay
	// bounded: no more than a few stale entries per dispatched event.
	if stale > 4*events {
		t.Fatalf("%d stale heap entries for %d events — invalidation churn", stale, events)
	}
	if hs, ds := stepped.Stats(), drained.Stats(); hs != ds {
		t.Fatalf("incremental vs drained stats:\n  %+v\n  %+v", hs, ds)
	}
}

// TestTruncateMultibyte pins the satellite fix: job names are truncated
// on rune boundaries, never mid-encoding.
func TestTruncateMultibyte(t *testing.T) {
	cases := []struct {
		in   string
		n    int
		want string
	}{
		{"short", 16, "short"},
		{"exactly-sixteen!", 16, "exactly-sixteen!"},
		{"seventeen-chars!!", 16, "seventeen-chars…"},
		{"ステンシル計算のジョブ名前が長い", 16, "ステンシル計算のジョブ名前が長い"},   // 16 runes, 48 bytes
		{"ステンシル計算のジョブ名前が長すぎる", 16, "ステンシル計算のジョブ名前が長…"}, // 15 runes kept + ellipsis
		{"héllo-wörld-jöb-nâme", 16, "héllo-wörld-jöb…"},
	}
	for _, tc := range cases {
		got := truncate(tc.in, tc.n)
		if got != tc.want {
			t.Errorf("truncate(%q, %d) = %q, want %q", tc.in, tc.n, got, tc.want)
		}
	}
}

// TestSqueueSacctValidUTF8 feeds multibyte job names through the squeue
// and sacct renderers and requires well-formed output.
func TestSqueueSacctValidUTF8(t *testing.T) {
	c := newTestCluster(t, 1)
	id, err := c.Submit(JobSpec{Name: "ステンシル計算のジョブ名前が長すぎる", Tasks: 4, BaseTime: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range []string{c.Squeue(), c.Sacct()} {
		if !validUTF8(out) {
			t.Fatalf("invalid UTF-8 in renderer output:\n%s", out)
		}
	}
	c.Drain()
	if !validUTF8(c.Sacct()) {
		t.Fatal("invalid UTF-8 in sacct after drain")
	}
	if _, err := c.Status(id); err != nil {
		t.Fatal(err)
	}
}

func validUTF8(s string) bool {
	for _, r := range s {
		if r == 0xFFFD {
			return false
		}
	}
	return true
}
