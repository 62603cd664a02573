package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/workload"
)

// The traced run attributes an op's time to layers from outside the
// program: spans around the harness's own calls into public functions,
// the events the runtime hands to an mpi.Hook, and public counters.
// Spans inside the runtime are a later issue.

// traceFileOps bounds the Chrome trace: spans of later ops still feed
// the layer sums but are not kept for the file.
const traceFileOps = 30

// span is one interval of a traced op. Every span carries the op it
// belongs to and the span that caused it.
type span struct {
	id, parent, op int
	name, layer    string
	rank           int // -1: the driver goroutine
	start, dur     time.Duration
	calls          int // > 0: that many calls, timed one by one, drawn as one span
}

type interval struct {
	start time.Time
	dur   time.Duration
}

// covered is the length of the union of ivs: the part of a parent span
// its children account for, counting overlapping children once.
func covered(ivs []interval) time.Duration {
	sorted := append([]interval(nil), ivs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].start.Before(sorted[j].start) })
	var total time.Duration
	var end time.Time
	for _, iv := range sorted {
		stop := iv.start.Add(iv.dur)
		switch {
		case !iv.start.Before(end):
			total += iv.dur
			end = stop
		case stop.After(end):
			total += stop.Sub(end)
			end = stop
		}
	}
	return total
}

// tracer keeps the spans of one workload's traced ops in memory and the
// per-layer sums over them.
type tracer struct {
	epoch  time.Time
	spans  []span
	nextID int
	ops    int                // traced ops folded into sums
	sums   map[string]float64 // sum over traced ops, under the metric's own name where the metric is the per-op mean
	hook   hookLog
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), sums: make(map[string]float64)}
}

// opRec records one traced op. A nil *opRec is an untraced op: add is
// a no-op and the workload skips world and pump.
type opRec struct {
	t     *tracer
	op    int // op number, shared by every span of the op
	id    int // the op span
	start time.Time
}

func (t *tracer) begin() *opRec {
	t.nextID++
	return &opRec{t: t, op: t.ops, id: t.nextID, start: time.Now()}
}

func (r *opRec) end() time.Duration {
	d := time.Since(r.start)
	r.t.record(r, span{id: r.id, name: "op", layer: "bench", rank: -1}, interval{r.start, d})
	r.t.sums["op.ms"] += ms(d)
	r.t.ops++
	return d
}

// record files a span under the op and returns its id.
func (t *tracer) record(r *opRec, s span, iv interval) int {
	if s.id == 0 {
		t.nextID++
		s.id = t.nextID
	}
	if r.op < traceFileOps {
		s.op, s.start, s.dur = r.op, iv.start.Sub(t.epoch), iv.dur
		t.spans = append(t.spans, s)
	}
	return s.id
}

func (r *opRec) add(name string, v float64) {
	if r != nil {
		r.t.sums[name] += v
	}
}

// hookLog is the harness's mpi.Hook: it appends, under a per-rank lock,
// the event each primitive emits on exit.
type hookLog struct {
	mu [np]sync.Mutex
	ev [np][]mpi.Event
}

func (h *hookLog) Event(e mpi.Event) {
	h.mu[e.Rank].Lock()
	h.ev[e.Rank] = append(h.ev[e.Rank], e)
	h.mu[e.Rank].Unlock()
}

// primLayer names the runtime file a primitive's time belongs to.
func primLayer(p mpi.Primitive) string {
	switch {
	case p >= mpi.PrimRMAPut && p <= mpi.PrimRMAWinFree:
		return "rma"
	case p >= mpi.PrimIallreduce && p <= mpi.PrimIallgather, p == mpi.PrimWaitColl:
		return "icoll"
	case p >= mpi.PrimBcast && p <= mpi.PrimBarrier, p == mpi.PrimReduceScatter:
		return "collectives"
	}
	return "p2p"
}

// world runs body on np ranks under a "world" span with one
// "module-call" span per rank and one span per primitive event, then
// folds the op's spans and counters into the layer sums.
func (r *opRec) world(launch func(int, func(*mpi.Comm) error, ...mpi.Option) error, body func(*mpi.Comm) error) error {
	t := r.t
	h := &t.hook
	for rank := range h.ev {
		h.ev[rank] = h.ev[rank][:0]
	}
	var (
		mods  [np]interval
		comm0 *mpi.Comm
	)
	start := time.Now()
	err := launch(np, func(c *mpi.Comm) error {
		rank := c.Rank()
		if rank == 0 {
			comm0 = c
		}
		s := time.Now()
		err := body(c)
		mods[rank] = interval{s, time.Since(s)}
		return err
	}, mpi.WithHook(h))
	world := interval{start, time.Since(start)}
	if err != nil {
		return err
	}

	worldID := t.record(r, span{parent: r.id, name: "world", layer: "mpi", rank: -1}, world)
	var modSelf time.Duration
	for rank, m := range mods {
		modID := t.record(r, span{parent: worldID, name: "module-call", layer: "module", rank: rank}, m)
		modSelf += m.dur - t.foldPrims(r, modID, rank, h.ev[rank])
	}
	modUnion := covered(mods[:])
	t.sums["world.self_ms"] += ms(world.dur - modUnion)
	t.sums["module.self_ms"] += ms(modSelf) / np
	t.sums["world.ms"] += ms(world.dur)

	snap := comm0.Stats()
	for _, calls := range snap.Calls {
		for _, n := range calls {
			t.sums["mpi.calls_per_op"] += float64(n)
		}
	}
	t.sums["mpi.msgs_per_op"] += float64(snap.TotalMsgs)
	t.sums["mpi.wire_kb_per_op"] += float64(snap.TotalWire) / 1024
	return nil
}

// foldPrims files one rank's primitive events under its module-call and
// adds their self times to the layer sums, as per-rank means: a rank's
// primitives run one after another and the ranks run side by side. A
// primitive that calls another user-facing one (MPI_Win_fence runs an
// MPI_Barrier) is the parent of that event, and only its own part counts
// for its layer. It returns the time the top-level primitives cover.
func (t *tracer) foldPrims(r *opRec, modID, rank int, evs []mpi.Event) time.Duration {
	// Events arrive in exit order; nesting needs entry order.
	sort.SliceStable(evs, func(i, j int) bool {
		if !evs[i].Start.Equal(evs[j].Start) {
			return evs[i].Start.Before(evs[j].Start)
		}
		return evs[i].Dur > evs[j].Dur
	})
	type open struct {
		id           int
		end          time.Time
		layer        string
		self, selfBl time.Duration
		waitColl     bool
	}
	var stack []open
	var top time.Duration
	closeTop := func() {
		o := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		self, bl := ms(max(o.self, 0))/np, ms(max(o.selfBl, 0))/np
		t.sums["mpi.prim_ms_per_op"] += self
		t.sums["mpi.blocked_ms_per_op"] += bl
		t.sums[o.layer+".ms_per_op"] += self
		t.sums[o.layer+".blocked_ms_per_op"] += bl
		if o.waitColl {
			t.sums["icoll.wait_ms_per_op"] += self
		}
	}
	for _, e := range evs {
		for len(stack) > 0 && !e.Start.Before(stack[len(stack)-1].end) {
			closeTop()
		}
		parent := modID
		if n := len(stack); n > 0 {
			p := &stack[n-1]
			parent = p.id
			p.self -= min(e.Dur, p.end.Sub(e.Start))
			p.selfBl -= e.Blocked
		} else {
			top += e.Dur
		}
		layer := primLayer(e.Prim)
		id := t.record(r, span{parent: parent, name: e.Prim.String(), layer: layer, rank: rank}, interval{e.Start, e.Dur})
		stack = append(stack, open{id, e.Start.Add(e.Dur), layer, e.Dur, e.Blocked, e.Prim == mpi.PrimWaitColl})
		t.sums["mpi.queued_ms_per_op"] += ms(e.Queued) / np
	}
	for len(stack) > 0 {
		closeTop()
	}
	t.sums["hook.events_per_op"] += float64(len(evs))
	return top
}

// pump makes the same calls as workload.Run, timing each one. The
// 3·njobs intervals are summed per callee and drawn as one span each;
// keeping them apart would cost more than the calls they time.
func (r *opRec) pump(c *cluster.Cluster, g *workload.Generator, njobs int) (workload.RunResult, error) {
	var res workload.RunResult
	var next, until, submit time.Duration
	start := time.Now()
	t0 := start
	for i := 0; i < njobs; i++ {
		a := g.Next()
		t1 := time.Now()
		c.RunUntil(a.At)
		t2 := time.Now()
		_, err := c.Submit(a.Spec)
		t3 := time.Now()
		if err != nil {
			return res, fmt.Errorf("job %d: %w", g.Count(), err)
		}
		next += t1.Sub(t0)
		until += t2.Sub(t1)
		submit += t3.Sub(t2)
		t0 = t3
		if live := c.LiveJobs(); live > res.PeakLive {
			res.PeakLive = live
		}
	}
	drainStart := time.Now()
	c.Drain()
	drain := time.Since(drainStart)
	if live := c.LiveJobs(); live > res.PeakLive {
		res.PeakLive = live
	}
	res.Stats = c.Stats()
	res.Events, res.Stale = c.EventProbe()

	t := r.t
	at := start
	for _, s := range []struct {
		name, layer string
		dur         time.Duration
	}{{"next", "workload", next}, {"rununtil", "cluster", until}, {"submit", "cluster", submit}} {
		t.record(r, span{parent: r.id, name: s.name, layer: s.layer, rank: -1, calls: njobs}, interval{at, s.dur})
		at = at.Add(s.dur)
	}
	t.record(r, span{parent: r.id, name: "drain", layer: "cluster", rank: -1}, interval{drainStart, drain})
	t.sums["workload.next_ms"] += ms(next)
	t.sums["cluster.rununtil_ms"] += ms(until)
	t.sums["cluster.submit_ms"] += ms(submit)
	t.sums["cluster.drain_ms_per_op"] += ms(drain)
	return res, nil
}

// reconcile splits the mean traced op into layer self-times plus a
// residual, so that the rows add up to the op exactly. On an mpi
// workload the residual is what no single rank's spans explain: the
// ranks do not start and stop together, so the union of their
// module-calls is longer than their mean.
func (t *tracer) reconcile() (rows []reconRow, opMs float64) {
	per := func(name string) float64 { return t.sums[name] / float64(t.ops) }
	opMs = per("op.ms")
	if t.sums["world.ms"] > 0 {
		rows = []reconRow{
			{"bench: harness, verification (op self)", opMs - per("world.ms")},
			{"mpi: world launch + teardown (world self)", per("world.self_ms")},
			{"module: compute (module-call self, rank mean)", per("module.self_ms")},
			{"mpi: primitives, runtime self (rank mean)", per("mpi.prim_ms_per_op") - per("mpi.blocked_ms_per_op")},
			{"mpi: primitives, blocked on a partner (rank mean)", per("mpi.blocked_ms_per_op")},
		}
	} else {
		rows = []reconRow{
			{"workload: Generator.Next", per("workload.next_ms")},
			{"cluster: RunUntil (events + scheduling pass)", per("cluster.rununtil_ms")},
			{"cluster: Submit", per("cluster.submit_ms")},
			{"cluster: Drain", per("cluster.drain_ms_per_op")},
		}
	}
	residual := opMs
	for _, row := range rows {
		residual -= row.ms
	}
	rows = append(rows, reconRow{"bench: residual", residual})
	return rows, opMs
}

type reconRow struct {
	label string
	ms    float64
}

// writeChrome writes the kept spans as a Chrome trace (chrome://tracing,
// ui.perfetto.dev): one thread for the driver and one per rank.
func (t *tracer) writeChrome(dir, name string, env map[string]string) (string, error) {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := []event{{Name: "thread_name", Ph: "M", PID: 1, TID: 0, Args: map[string]any{"name": "driver"}}}
	for rank := 0; rank < np; rank++ {
		events = append(events, event{Name: "thread_name", Ph: "M", PID: 1, TID: rank + 1,
			Args: map[string]any{"name": fmt.Sprintf("rank %d", rank)}})
	}
	for _, s := range t.spans {
		args := map[string]any{"op": s.op, "id": s.id}
		if s.parent != 0 {
			args["parent"] = s.parent
		}
		name := s.name
		if s.calls > 0 {
			args["calls"] = s.calls
			name = fmt.Sprintf("%s x%d (summed)", s.name, s.calls)
		}
		events = append(events, event{Name: name, Cat: s.layer, Ph: "X", TS: us(s.start), Dur: us(s.dur),
			PID: 1, TID: s.rank + 1, Args: args})
	}
	out, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "otherData": env})
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+name+".json")
	return path, os.WriteFile(path, out, 0o644)
}
