package prof

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/mpi"
)

// chromeEvent is one entry of the Chrome trace-event format: "X" =
// complete event, "s"/"f" = flow start/finish (message arrows), "i" =
// instant marker, "M" = metadata. Durations and timestamps are
// microseconds; pid/tid map to job/rank.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TsUS  float64        `json:"ts"`
	DurUS float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	ID    int64          `json:"id,omitempty"`
	BP    string         `json:"bp,omitempty"`
	Scope string         `json:"s,omitempty"` // instant-event scope: g/p/t
	Args  map[string]any `json:"args,omitempty"`
}

// flow is one matched send/receive pair: a directed message edge between
// two rank timelines, exported as a Chrome "s"/"f" pair so Perfetto
// draws an arrow from the sending primitive to the consuming one.
type flow struct {
	ID       int64 // the runtime's message id
	Name     string
	FromRank int
	FromTime time.Time // anchor inside the sending slice
	ToRank   int
	ToTime   time.Time // anchor inside the consuming slice
}

// Flows pairs matched send and receive events by message id into
// directed edges for the Chrome exporter. The arrow's head is the end of
// the consuming primitive. Its tail is the end of the sending one, or
// the receive's end if that came first: an eager receive can complete
// before the sender reads its clock, and an arrow must not arrive before
// it leaves. Either way the tail lies inside the sending slice.
func Flows(events []mpi.Event) []flow {
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
	var out []flow
	for id, s := range sends {
		r, ok := recvs[id]
		if !ok {
			continue
		}
		from := s.at
		if r.at.Before(from) {
			from = r.at
		}
		out = append(out, flow{
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
// recoveries). Load the output in chrome://tracing or
// https://ui.perfetto.dev — the graphical counterpart of the ASCII Gantt
// chart. A process_name metadata record labels the job, so several jobs
// written with distinct pids can be concatenated into one trace without
// their rank timelines colliding.
func (p *Collector) WriteChromeTrace(w io.Writer, pid int, name string) error {
	events, life := p.Events(), p.LifecycleEvents()
	p.mu.Lock()
	epoch := p.epoch
	p.mu.Unlock()
	ivs, flows := Intervals(events), Flows(events)
	us := func(t time.Time) float64 { return float64(t.Sub(epoch).Microseconds()) }
	out := make([]chromeEvent, 0, len(ivs)+2*len(flows)+len(life)+1)
	if name != "" {
		out = append(out, chromeEvent{
			Name:  "process_name",
			Phase: "M",
			PID:   pid,
			Args:  map[string]any{"name": name},
		})
	}
	for _, iv := range ivs {
		out = append(out, chromeEvent{
			Name:  iv.Label,
			Cat:   string(iv.Kind),
			Phase: "X",
			TsUS:  us(iv.Start),
			DurUS: float64(iv.Dur.Microseconds()),
			PID:   pid,
			TID:   iv.Rank,
		})
	}
	for _, f := range flows {
		out = append(out, chromeEvent{
			Name:  f.Name,
			Cat:   "msg",
			Phase: "s",
			TsUS:  us(f.FromTime),
			PID:   pid,
			TID:   f.FromRank,
			ID:    f.ID,
		}, chromeEvent{
			Name:  f.Name,
			Cat:   "msg",
			Phase: "f",
			TsUS:  us(f.ToTime),
			PID:   pid,
			TID:   f.ToRank,
			ID:    f.ID,
			BP:    "e", // bind to the enclosing slice so the arrow lands on the primitive
		})
	}
	for _, e := range life {
		ev := chromeEvent{
			Name:  e.Kind,
			Cat:   "lifecycle",
			Phase: "i",
			TsUS:  us(e.Time),
			PID:   pid,
			TID:   e.Rank,
			Scope: "t", // thread-scoped: the flag sits on the rank's track
		}
		if e.Detail != "" {
			ev.Args = map[string]any{"detail": e.Detail}
		}
		out = append(out, ev)
	}
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": out}); err != nil {
		return fmt.Errorf("prof: encoding chrome trace: %w", err)
	}
	return nil
}
