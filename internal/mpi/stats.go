package mpi

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Primitive identifies a user-facing communication primitive for the
// accounting that regenerates Table II of the paper.
type Primitive int

const (
	PrimSend Primitive = iota
	PrimRecv
	PrimIsend
	PrimIrecv
	PrimWait
	PrimBcast
	PrimScatter
	PrimGather
	PrimGatherv
	PrimReduce
	PrimAllreduce
	PrimAlltoallv
	PrimBarrier
	PrimSendrecv
	PrimProbe
	PrimGetCount
	// One-sided (RMA) primitives. Only Discretionary activities may use
	// them: they are outside the paper's Table II matrix.
	PrimRMAPut
	PrimRMAGet
	PrimRMAAcc
	PrimRMACas
	PrimRMAFence
	PrimRMAFlush
	PrimRMAWinCreate
	PrimRMAWinFree
	// Nonblocking collectives (icoll.go). Appended after the RMA block so
	// the [PrimRMAPut, PrimRMAWinFree] range checks stay valid.
	PrimIallreduce
	PrimIallgather
	PrimReduceScatter
	PrimWaitColl
	numPrimitives
)

var primitiveNames = [numPrimitives]string{
	"MPI_Send", "MPI_Recv", "MPI_Isend", "MPI_Irecv", "MPI_Wait",
	"MPI_Bcast", "MPI_Scatter", "MPI_Gather", "MPI_Gatherv",
	"MPI_Reduce", "MPI_Allreduce", "MPI_Alltoallv",
	"MPI_Barrier", "MPI_Sendrecv", "MPI_Probe", "MPI_Get_count",
	"MPI_Put", "MPI_Get", "MPI_Accumulate", "MPI_Compare_and_swap",
	"MPI_Win_fence", "MPI_Win_flush", "MPI_Win_create", "MPI_Win_free",
	"MPI_Iallreduce", "MPI_Iallgather", "MPI_Reduce_scatter",
	"MPI_Wait_coll",
}

// String returns the MPI-style name of the primitive.
func (p Primitive) String() string {
	if p < 0 || p >= numPrimitives {
		return fmt.Sprintf("Primitive(%d)", int(p))
	}
	return primitiveNames[p]
}

// Primitives returns every defined primitive in numeric order, so
// external instrumentation (e.g. internal/telemetry) can size and label
// per-primitive series without hard-coding the count.
func Primitives() []Primitive {
	out := make([]Primitive, numPrimitives)
	for i := range out {
		out[i] = Primitive(i)
	}
	return out
}

// Nonblocking-collective telemetry: process-wide counters for the
// background progress engine (icoll.go), read by IcollStats. Steps per
// completion is the figure of merit for overlap: arrival-driven advances
// that ran on a delivering goroutine are the work a blocking collective
// would have charged to the caller.
var (
	icollStarted   atomic.Int64 // nonblocking collectives initiated
	icollCompleted atomic.Int64 // nonblocking collectives completed (or failed)
	icollSteps     atomic.Int64 // state-machine advances executed
	icollArrivals  atomic.Int64 // advances driven by a message arrival (background progress)
)

// IcollCounters is a snapshot of the nonblocking-collective progress
// engine, aggregated over every world in the process (mirrors
// RMABatchCounters).
type IcollCounters struct {
	Started   int64 // collectives initiated
	Completed int64 // collectives completed, including failures
	Steps     int64 // state-machine advances
	Arrivals  int64 // advances triggered by arrivals rather than Wait/Test polls
}

// Sub returns the counter deltas since an earlier snapshot.
func (c IcollCounters) Sub(prev IcollCounters) IcollCounters {
	return IcollCounters{
		Started:   c.Started - prev.Started,
		Completed: c.Completed - prev.Completed,
		Steps:     c.Steps - prev.Steps,
		Arrivals:  c.Arrivals - prev.Arrivals,
	}
}

// IcollStats reports cumulative nonblocking-collective counters for this
// process.
func IcollStats() IcollCounters {
	return IcollCounters{
		Started:   icollStarted.Load(),
		Completed: icollCompleted.Load(),
		Steps:     icollSteps.Load(),
		Arrivals:  icollArrivals.Load(),
	}
}

// rankStats holds one rank's counters. Fields are atomics because the
// world aggregates while ranks run (e.g. a registry snapshotting mid-run).
type rankStats struct {
	calls     [numPrimitives]atomic.Int64 // bumped by Comm.begin (hook.go)
	wireSent  atomic.Int64                // envelope bytes put on the transport
	wireRecv  atomic.Int64                // envelope bytes taken off the transport
	msgsSent  atomic.Int64
	msgsRecvd atomic.Int64
}

// WorldStats aggregates communication accounting for a world.
type WorldStats struct {
	ranks []rankStats
}

func newWorldStats(np int) *WorldStats {
	return &WorldStats{ranks: make([]rankStats, np)}
}

func (s *WorldStats) addWire(src, dst, n int) {
	s.ranks[src].wireSent.Add(int64(n))
	s.ranks[src].msgsSent.Add(1)
	s.ranks[dst].wireRecv.Add(int64(n))
	s.ranks[dst].msgsRecvd.Add(1)
}

// Snapshot is an immutable copy of the accounting, safe to read after (or
// during) a run.
type Snapshot struct {
	Size  int
	Calls []map[Primitive]int64 // per rank, only nonzero entries
	// Per-rank byte and message counters, indexed by rank.
	WireSent, WireRecv   []int64
	MsgsSent, MsgsRecvd  []int64
	TotalWire, TotalMsgs int64
}

// Snapshot captures current counter values.
func (s *WorldStats) Snapshot() Snapshot {
	np := len(s.ranks)
	snap := Snapshot{
		Size:      np,
		Calls:     make([]map[Primitive]int64, np),
		WireSent:  make([]int64, np),
		WireRecv:  make([]int64, np),
		MsgsSent:  make([]int64, np),
		MsgsRecvd: make([]int64, np),
	}
	for r := range s.ranks {
		rs := &s.ranks[r]
		m := make(map[Primitive]int64)
		for p := Primitive(0); p < numPrimitives; p++ {
			if v := rs.calls[p].Load(); v > 0 {
				m[p] = v
			}
		}
		snap.Calls[r] = m
		snap.WireSent[r] = rs.wireSent.Load()
		snap.WireRecv[r] = rs.wireRecv.Load()
		snap.MsgsSent[r] = rs.msgsSent.Load()
		snap.MsgsRecvd[r] = rs.msgsRecvd.Load()
		snap.TotalWire += snap.WireSent[r]
		snap.TotalMsgs += snap.MsgsSent[r]
	}
	return snap
}

// PrimitivesUsed returns the set of primitives any rank invoked, sorted by
// MPI name. This is what the Table II verification compares against the
// paper's matrix.
func (s Snapshot) PrimitivesUsed() []Primitive {
	set := make(map[Primitive]bool)
	for _, m := range s.Calls {
		for p := range m {
			set[p] = true
		}
	}
	out := make([]Primitive, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TotalCalls sums invocations of p across ranks.
func (s Snapshot) TotalCalls(p Primitive) int64 {
	var n int64
	for _, m := range s.Calls {
		n += m[p]
	}
	return n
}

// String renders a compact per-rank accounting table.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "world size %d, %d messages, %d wire bytes\n", s.Size, s.TotalMsgs, s.TotalWire)
	for r := 0; r < s.Size; r++ {
		fmt.Fprintf(&b, "  rank %d: sent %d B (%d msgs), recv %d B (%d msgs)\n",
			r, s.WireSent[r], s.MsgsSent[r], s.WireRecv[r], s.MsgsRecvd[r])
	}
	for _, p := range s.PrimitivesUsed() {
		fmt.Fprintf(&b, "  %-14s × %d\n", p, s.TotalCalls(p))
	}
	return b.String()
}
