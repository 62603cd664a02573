package prof

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/mpi"
)

// WaitKind classifies blocking time in the Scalasca taxonomy.
type WaitKind int

const (
	// LateSender: a receive-side primitive blocked because the matching
	// send had not arrived yet — the peer (sender) was late.
	LateSender WaitKind = iota
	// LateReceiver: a rendezvous send blocked because the destination
	// had not posted a matching receive — the peer (receiver) was late.
	LateReceiver
	// CollectiveWait: a rank blocked inside a collective waiting for the
	// other members to arrive or make progress.
	CollectiveWait
	// RMATargetWait: a one-sided operation blocked on the target's
	// progress engine — a fetch (Get, CompareAndSwap) awaiting its reply,
	// or a Flush draining completions.
	RMATargetWait
)

func (k WaitKind) String() string {
	switch k {
	case LateSender:
		return "late-sender"
	case LateReceiver:
		return "late-receiver"
	case CollectiveWait:
		return "collective-wait"
	case RMATargetWait:
		return "rma-target-wait"
	}
	return fmt.Sprintf("WaitKind(%d)", int(k))
}

// WaitState aggregates blocking time of one kind attributed to one
// (waiter, peer) rank pair. Peer is -1 for collective waits, where the
// lost time has no single culprit.
type WaitState struct {
	Kind   WaitKind
	Waiter int // rank that lost the time
	Peer   int // rank it waited on; -1 for collectives
	Wait   time.Duration
	Count  int // primitive invocations that contributed
}

// WaitStates attributes every event's blocked time to a wait-state class
// and aggregates per (kind, waiter, peer), sorted by total wait
// descending.
func WaitStates(events []mpi.Event) []WaitState {
	type key struct {
		kind   WaitKind
		waiter int
		peer   int
	}
	agg := make(map[key]*WaitState)
	add := func(kind WaitKind, waiter, peer int, d time.Duration) {
		k := key{kind, waiter, peer}
		ws, ok := agg[k]
		if !ok {
			ws = &WaitState{Kind: kind, Waiter: waiter, Peer: peer}
			agg[k] = ws
		}
		ws.Wait += d
		ws.Count++
	}
	for _, e := range events {
		if e.Blocked <= 0 {
			continue
		}
		kind, peer, ok := classify(e)
		if !ok {
			continue
		}
		add(kind, e.Rank, peer, e.Blocked)
	}
	out := make([]WaitState, 0, len(agg))
	for _, ws := range agg {
		out = append(out, *ws)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Wait != out[j].Wait {
			return out[i].Wait > out[j].Wait
		}
		if out[i].Waiter != out[j].Waiter {
			return out[i].Waiter < out[j].Waiter
		}
		return out[i].Peer < out[j].Peer
	})
	return out
}

// classify maps one blocked event to its wait-state class and culprit.
func classify(e mpi.Event) (WaitKind, int, bool) {
	switch e.Prim {
	case mpi.PrimRecv, mpi.PrimProbe:
		if e.Peer >= 0 {
			return LateSender, e.Peer, true
		}
		return LateSender, -1, true
	case mpi.PrimSend:
		// A blocked Send is the rendezvous protocol waiting for the
		// acknowledgement: the receiver had not matched yet.
		if e.Peer >= 0 {
			return LateReceiver, e.Peer, true
		}
	case mpi.PrimSendrecv:
		// The blocking can be on either side; attribute to the exchange
		// peer (symmetric neighbour patterns make this the useful edge).
		if e.Peer >= 0 {
			return LateReceiver, e.Peer, true
		}
	case mpi.PrimWait:
		if e.RecvID != 0 {
			return LateSender, e.Peer, true
		}
		if e.Peer >= 0 {
			return LateReceiver, e.Peer, true
		}
		return LateSender, -1, true
	case mpi.PrimBarrier, mpi.PrimBcast, mpi.PrimScatter, mpi.PrimGather,
		mpi.PrimGatherv, mpi.PrimReduce, mpi.PrimAllreduce,
		mpi.PrimAlltoallv, mpi.PrimReduceScatter, mpi.PrimIallreduce,
		mpi.PrimIallgather, mpi.PrimWaitColl:
		// Nonblocking-collective initiations rarely block; MPI_Wait_coll
		// carries the time the rank actually stalled on the collective.
		return CollectiveWait, -1, true
	case mpi.PrimRMAFence, mpi.PrimRMAWinCreate, mpi.PrimRMAWinFree:
		// Epoch-closing RMA calls barrier internally: blocking there is the
		// members arriving, not any single target being slow.
		return CollectiveWait, -1, true
	case mpi.PrimRMAPut, mpi.PrimRMAGet, mpi.PrimRMAAcc, mpi.PrimRMACas,
		mpi.PrimRMAFlush:
		if e.SendID == 0 && e.Peer >= 0 && e.Dur == 0 {
			// Target-side mirror event: the progress engine never blocks.
			return 0, 0, false
		}
		if e.Peer >= 0 {
			return RMATargetWait, e.Peer, true
		}
		return RMATargetWait, -1, true
	}
	return 0, 0, false
}

// Summary is the critical-path and load-imbalance digest of a profiled
// run.
type Summary struct {
	Ranks    int
	Span     []time.Duration // per rank: first primitive entry to last primitive exit
	CommTime []time.Duration // per rank: total time inside primitives
	Blocked  []time.Duration // per rank: blocked share of CommTime
	Bytes    []int64         // per rank: payload bytes through primitives
	Calls    []int64         // per rank: primitive invocations

	MaxSpan      time.Duration // critical path: the busiest rank's span
	MeanSpan     time.Duration
	CriticalRank int     // rank with the longest span
	Imbalance    float64 // MaxSpan/MeanSpan - 1; 0 for perfectly balanced

	TopWaits []WaitState // all wait edges, worst first
}

// Summarize computes the per-rank and world-level digest of an event
// stream.
func Summarize(events []mpi.Event) Summary {
	maxRank := -1
	for _, e := range events {
		if e.Rank > maxRank {
			maxRank = e.Rank
		}
	}
	n := maxRank + 1
	s := Summary{
		Ranks:        n,
		Span:         make([]time.Duration, n),
		CommTime:     make([]time.Duration, n),
		Blocked:      make([]time.Duration, n),
		Bytes:        make([]int64, n),
		Calls:        make([]int64, n),
		CriticalRank: -1,
	}
	first := make([]time.Time, n)
	last := make([]time.Time, n)
	for _, e := range events {
		r := e.Rank
		s.CommTime[r] += e.Dur
		s.Blocked[r] += e.Blocked
		s.Bytes[r] += int64(e.Bytes)
		s.Calls[r]++
		if first[r].IsZero() || e.Start.Before(first[r]) {
			first[r] = e.Start
		}
		if end := e.Start.Add(e.Dur); end.After(last[r]) {
			last[r] = end
		}
	}
	var total time.Duration
	active := 0
	for r := 0; r < n; r++ {
		if first[r].IsZero() {
			continue
		}
		s.Span[r] = last[r].Sub(first[r])
		total += s.Span[r]
		active++
		if s.Span[r] > s.MaxSpan {
			s.MaxSpan = s.Span[r]
			s.CriticalRank = r
		}
	}
	if active > 0 {
		s.MeanSpan = total / time.Duration(active)
	}
	if s.MeanSpan > 0 {
		s.Imbalance = float64(s.MaxSpan)/float64(s.MeanSpan) - 1
	}
	s.TopWaits = WaitStates(events)
	return s
}

// WaitFraction returns rank r's blocked time as a share of its time
// inside primitives, or 0 for an idle rank.
func (s Summary) WaitFraction(r int) float64 {
	if r < 0 || r >= s.Ranks || s.CommTime[r] == 0 {
		return 0
	}
	return float64(s.Blocked[r]) / float64(s.CommTime[r])
}

// RenderProfile formats the mpiP-style per-primitive aggregate table:
// one row per primitive used, with call counts, payload volume, total
// time inside the primitive and the blocked share.
func RenderProfile(events []mpi.Event) string {
	type row struct {
		calls   int64
		bytes   int64
		dur     time.Duration
		blocked time.Duration
	}
	rows := make(map[mpi.Primitive]*row)
	for _, e := range events {
		r, ok := rows[e.Prim]
		if !ok {
			r = &row{}
			rows[e.Prim] = r
		}
		r.calls++
		r.bytes += int64(e.Bytes)
		r.dur += e.Dur
		r.blocked += e.Blocked
	}
	prims := make([]mpi.Primitive, 0, len(rows))
	for p := range rows {
		prims = append(prims, p)
	}
	sort.Slice(prims, func(i, j int) bool { return rows[prims[i]].dur > rows[prims[j]].dur })
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %8s %12s %14s %14s %7s\n", "primitive", "calls", "bytes", "time", "blocked", "blk%")
	for _, p := range prims {
		r := rows[p]
		pct := 0.0
		if r.dur > 0 {
			pct = float64(r.blocked) / float64(r.dur) * 100
		}
		fmt.Fprintf(&b, "%-14s %8d %12d %14v %14v %6.1f%%\n",
			p, r.calls, r.bytes, r.dur.Round(time.Microsecond), r.blocked.Round(time.Microsecond), pct)
	}
	return b.String()
}

// RenderWaitStates formats the wait-state table, worst edges first. topN
// bounds the number of rows; topN <= 0 prints everything.
func RenderWaitStates(ws []WaitState, topN int) string {
	if len(ws) == 0 {
		return "no wait states recorded\n"
	}
	if topN > 0 && len(ws) > topN {
		ws = ws[:topN]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %6s %6s %8s %14s\n", "wait-state", "waiter", "peer", "count", "lost")
	for _, w := range ws {
		peer := fmt.Sprintf("%d", w.Peer)
		if w.Peer < 0 {
			peer = "*"
		}
		fmt.Fprintf(&b, "%-16s %6d %6s %8d %14v\n", w.Kind, w.Waiter, peer, w.Count, w.Wait.Round(time.Microsecond))
	}
	return b.String()
}

// RenderSummary formats the per-rank digest plus the critical-path and
// imbalance lines.
func RenderSummary(s Summary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %14s %14s %14s %8s %10s\n", "rank", "span", "in-mpi", "blocked", "wait%", "bytes")
	for r := 0; r < s.Ranks; r++ {
		fmt.Fprintf(&b, "%6d %14v %14v %14v %7.1f%% %10d\n",
			r, s.Span[r].Round(time.Microsecond), s.CommTime[r].Round(time.Microsecond),
			s.Blocked[r].Round(time.Microsecond), s.WaitFraction(r)*100, s.Bytes[r])
	}
	fmt.Fprintf(&b, "critical path: rank %d (%v); mean rank span %v; imbalance %.1f%%\n",
		s.CriticalRank, s.MaxSpan.Round(time.Microsecond), s.MeanSpan.Round(time.Microsecond), s.Imbalance*100)
	return b.String()
}

// SummaryOf renders each active rank's compute/communication split as
// text: comm is the rank's time inside primitives, compute the rest of
// its span.
func SummaryOf(s Summary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %14s %14s %8s\n", "rank", "compute", "comm", "comm%")
	for r := 0; r < s.Ranks; r++ {
		if s.Calls[r] == 0 {
			continue
		}
		frac := 0.0
		if s.Span[r] > 0 {
			frac = float64(s.CommTime[r]) / float64(s.Span[r])
		}
		fmt.Fprintf(&b, "%6d %14v %14v %7.1f%%\n",
			r, (s.Span[r] - s.CommTime[r]).Round(time.Microsecond), s.CommTime[r].Round(time.Microsecond), frac*100)
	}
	return b.String()
}

// Report renders the full ASCII profile: primitive table, per-rank
// summary and the top wait-state edges — what `mpirun --profile` prints.
func Report(events []mpi.Event) string {
	var b strings.Builder
	b.WriteString("== per-primitive profile ==\n")
	b.WriteString(RenderProfile(events))
	b.WriteString("\n== per-rank summary ==\n")
	s := Summarize(events)
	b.WriteString(RenderSummary(s))
	b.WriteString("\n== wait states (top 10) ==\n")
	b.WriteString(RenderWaitStates(s.TopWaits, 10))
	return b.String()
}
