package prof

import (
	"io"
	"time"

	"repro/internal/mpi"
	"repro/internal/trace"
)

// Flows pairs matched send and receive events by message id into
// directed edges for the Chrome exporter. The arrow's head is the end of
// the consuming primitive. Its tail is the end of the sending one, or
// the receive's end if that came first: an eager receive can complete
// before the sender reads its clock, and an arrow must not arrive before
// it leaves. Either way the tail lies inside the sending slice.
func Flows(events []mpi.Event) []trace.Flow {
	type end struct {
		rank int
		at   time.Time
		prim mpi.Primitive
	}
	sends := make(map[int64]end)
	recvs := make(map[int64]end)
	for _, e := range events {
		if e.SendID != 0 {
			if _, ok := sends[e.SendID]; !ok {
				sends[e.SendID] = end{rank: e.Rank, at: e.Start.Add(e.Dur), prim: e.Prim}
			}
		}
		if e.RecvID != 0 {
			if _, ok := recvs[e.RecvID]; !ok {
				recvs[e.RecvID] = end{rank: e.Rank, at: e.Start.Add(e.Dur)}
			}
		}
	}
	var out []trace.Flow
	for id, s := range sends {
		r, ok := recvs[id]
		if !ok {
			continue
		}
		from := s.at
		if r.at.Before(from) {
			from = r.at
		}
		out = append(out, trace.Flow{
			ID:       id,
			Name:     s.prim.String(),
			FromRank: s.rank,
			FromTime: from,
			ToRank:   r.rank,
			ToTime:   r.at,
		})
	}
	return out
}

// WriteChromeTrace exports the event stream as Chrome trace-event JSON
// under the given pid and job name: one "X" slice per primitive, derived
// compute slices for the gaps, "s"/"f" flow pairs drawing message
// arrows between rank timelines in Perfetto, and "i" instant markers for
// fault-tolerance lifecycle events (failures, retries, checkpoints,
// recoveries).
func (p *Collector) WriteChromeTrace(w io.Writer, pid int, name string) error {
	events := p.Events()
	return trace.WriteChrome(w, pid, name, p.Epoch(), Intervals(events), Flows(events), p.Markers())
}
