// Package prof is the PMPI-style profiling layer of the runtime. A
// Collector attaches to a world via mpi.WithHook and records one
// structured event per primitive the program invokes, on every rank,
// identically over the channel and TCP transports; the runtime's own
// internal synchronizations are no primitives and emit nothing. On the
// event stream it provides:
//
//   - wait-state analysis in the Scalasca style (late-sender,
//     late-receiver and collective-wait attribution per rank pair);
//   - a critical-path and load-imbalance summary (max/mean rank time,
//     wait fractions, top wait edges) whose span and in-primitive time
//     also give each rank's compute/communication split — which Module
//     5 uses to show k-means flip from communication-bound (small k) to
//     compute-bound (large k);
//   - interval derivation: each primitive a communication interval and
//     each gap between them a compute interval, so any module gets an
//     ASCII Gantt chart of its alternating phases (the pattern learning
//     outcome 11 of the paper asks students to recognize) without
//     bespoke instrumentation;
//   - exporters: ASCII profile tables and Chrome trace-event JSON with
//     message-flow arrows and lifecycle markers for Perfetto.
package prof

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/mpi"
)

// Collector implements mpi.Hook by appending events under a mutex — the
// cheapest safe thing to do inside the runtime's primitive exit path. It
// also implements mpi.LifecycleHook, so failures, retries, checkpoints,
// and recoveries recorded by the fault-tolerance layer land in the same
// stream and export as instant markers on the Chrome trace.
type Collector struct {
	mu        sync.Mutex
	epoch     time.Time
	events    []mpi.Event
	lifecycle []mpi.LifecycleEvent
}

// New creates a Collector whose export time axis starts now.
func New() *Collector {
	return &Collector{epoch: time.Now()}
}

// Event records one primitive invocation. Safe for concurrent use by all
// rank goroutines.
func (p *Collector) Event(e mpi.Event) {
	p.mu.Lock()
	p.events = append(p.events, e)
	p.mu.Unlock()
}

// Lifecycle records a fault-tolerance lifecycle event (mpi.LifecycleHook).
func (p *Collector) Lifecycle(e mpi.LifecycleEvent) {
	p.mu.Lock()
	p.lifecycle = append(p.lifecycle, e)
	p.mu.Unlock()
}

// LifecycleEvents returns a copy of the recorded lifecycle events.
func (p *Collector) LifecycleEvents() []mpi.LifecycleEvent {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]mpi.LifecycleEvent(nil), p.lifecycle...)
}

// Events returns a copy of everything recorded so far.
func (p *Collector) Events() []mpi.Event {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]mpi.Event(nil), p.events...)
}

// Kind labels an interval.
type Kind string

const (
	Compute Kind = "compute"
	Comm    Kind = "comm"
)

// Interval is one traced span on one rank.
type Interval struct {
	Rank  int
	Kind  Kind
	Label string
	Start time.Time
	Dur   time.Duration
}

// Intervals derives trace intervals from the event stream: every
// primitive invocation becomes a communication interval, and the gap
// between consecutive primitives on the same rank becomes a compute
// interval. This is how every module gets Gantt charts and Chrome
// slices without module-level instrumentation.
func Intervals(events []mpi.Event) []Interval {
	byRank := make(map[int][]mpi.Event)
	for _, e := range events {
		byRank[e.Rank] = append(byRank[e.Rank], e)
	}
	var out []Interval
	for rank, evs := range byRank {
		sort.Slice(evs, func(i, j int) bool { return evs[i].Start.Before(evs[j].Start) })
		var lastEnd time.Time
		for i, e := range evs {
			if i > 0 {
				if gap := e.Start.Sub(lastEnd); gap > 0 {
					out = append(out, Interval{Rank: rank, Kind: Compute, Label: "compute", Start: lastEnd, Dur: gap})
				}
			}
			out = append(out, Interval{Rank: rank, Kind: Comm, Label: e.Prim.String(), Start: e.Start, Dur: e.Dur})
			if end := e.Start.Add(e.Dur); end.After(lastEnd) {
				lastEnd = end
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return out[i].Start.Before(out[j].Start)
	})
	return out
}

// Intervals derives trace intervals from the collector's event stream.
func (p *Collector) Intervals() []Interval { return Intervals(p.Events()) }

// GanttOf renders an ASCII chart, one row per rank, width columns wide.
// Compute intervals print as '#', communication as '~', idle as '.'.
func GanttOf(ivs []Interval, width int) string {
	if len(ivs) == 0 || width <= 0 {
		return "(no trace)\n"
	}
	start := ivs[0].Start
	end := ivs[0].Start.Add(ivs[0].Dur)
	maxRank := 0
	for _, iv := range ivs {
		if iv.Start.Before(start) {
			start = iv.Start
		}
		if e := iv.Start.Add(iv.Dur); e.After(end) {
			end = e
		}
		if iv.Rank > maxRank {
			maxRank = iv.Rank
		}
	}
	span := end.Sub(start)
	if span <= 0 {
		span = time.Nanosecond
	}
	rows := make([][]byte, maxRank+1)
	for r := range rows {
		rows[r] = []byte(strings.Repeat(".", width))
	}
	for _, iv := range ivs {
		lo := int(float64(iv.Start.Sub(start)) / float64(span) * float64(width))
		hi := int(float64(iv.Start.Add(iv.Dur).Sub(start)) / float64(span) * float64(width))
		if hi <= lo {
			hi = lo + 1
		}
		if hi > width {
			hi = width
		}
		ch := byte('#')
		if iv.Kind == Comm {
			ch = '~'
		}
		for i := lo; i < hi; i++ {
			// Communication never overwrites compute drawn at the same
			// column; compute is the rarer, more informative mark.
			if ch == '~' && rows[iv.Rank][i] == '#' {
				continue
			}
			rows[iv.Rank][i] = ch
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace over %v  (#=compute  ~=comm  .=idle)\n", span.Round(time.Microsecond))
	for r, row := range rows {
		fmt.Fprintf(&b, "rank %2d |%s|\n", r, row)
	}
	return b.String()
}

// Accounting condenses a profiled run into the figures an sacct-style
// job ledger reports.
type Accounting struct {
	Elapsed   time.Duration // span of the busiest rank (critical path)
	CommBytes int64         // user payload bytes through communication primitives
	WaitFrac  float64       // blocked time summed over ranks / rank spans summed over ranks
}

// Account summarizes the event stream for per-job accounting: elapsed is
// the longest rank span, CommBytes sums payload bytes through sending
// and collective primitives, and WaitFrac is the ranks' summed blocked
// time over their summed spans (first primitive entry to last exit).
func Account(events []mpi.Event) Accounting {
	s := Summarize(events)
	var a Accounting
	a.Elapsed = s.MaxSpan
	var blocked, span time.Duration
	for r := range s.Span {
		span += s.Span[r]
		blocked += s.Blocked[r]
	}
	if span > 0 {
		a.WaitFrac = float64(blocked) / float64(span)
	}
	for _, e := range events {
		if !sendsPayload(e.Prim) {
			continue
		}
		if isRMA(e.Prim) && e.SendID == 0 {
			// Target-side mirror of a one-sided op: the origin event with
			// the same bytes is already counted.
			continue
		}
		a.CommBytes += int64(e.Bytes)
	}
	return a
}

// isRMA reports whether p is a one-sided primitive, whose target-side
// mirror events share the origin's Primitive and Bytes.
func isRMA(p mpi.Primitive) bool {
	return p >= mpi.PrimRMAPut && p <= mpi.PrimRMAWinFree
}

// sendsPayload reports whether the primitive's Bytes field counts data
// this rank put on (or moved through) the network, so summing over it
// approximates communication volume without double-counting recv sides.
func sendsPayload(p mpi.Primitive) bool {
	switch p {
	case mpi.PrimSend, mpi.PrimIsend, mpi.PrimSendrecv,
		mpi.PrimBcast, mpi.PrimScatter,
		mpi.PrimGather, mpi.PrimGatherv,
		mpi.PrimReduce, mpi.PrimAllreduce, mpi.PrimAlltoallv,
		mpi.PrimIallreduce, mpi.PrimIallgather, mpi.PrimReduceScatter,
		mpi.PrimRMAPut, mpi.PrimRMAAcc, mpi.PrimRMACas:
		return true
	}
	return false
}
