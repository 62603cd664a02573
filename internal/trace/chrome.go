package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// chromeEvent is one entry of the Chrome trace-event format: "X" =
// complete event, "s"/"f" = flow start/finish (message arrows), "M" =
// metadata. Durations and timestamps are microseconds; pid/tid map to
// job/rank.
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

// Marker is a zero-duration point event on a rank timeline — failures,
// retries, checkpoints, recoveries. Exported as a Chrome instant event
// ("i" phase), which Perfetto renders as a flag on the rank's track.
type Marker struct {
	Rank int
	Name string // e.g. "failure", "checkpoint"
	Note string // free-form detail shown in the args pane
	At   time.Time
}

// Flow is one directed message edge between two rank timelines; exported
// as a Chrome "s"/"f" flow-event pair so Perfetto draws an arrow from the
// sending primitive to the consuming one.
type Flow struct {
	ID       int64 // unique per message (the runtime's flow id)
	Name     string
	FromRank int
	FromTime time.Time // anchor inside the sending slice
	ToRank   int
	ToTime   time.Time // anchor inside the consuming slice
}

// WriteChrome exports intervals, message flows, and instant markers in
// the Chrome trace-event JSON format under the given pid: load the output
// in chrome://tracing or https://ui.perfetto.dev to inspect the per-rank
// timeline interactively — the graphical counterpart of the ASCII Gantt
// chart. A process_name
// metadata record labels the job, so several jobs written with distinct
// pids can be concatenated into one trace without their rank timelines
// colliding.
func WriteChrome(w io.Writer, pid int, name string, epoch time.Time, ivs []Interval, flows []Flow, markers []Marker) error {
	us := func(t time.Time) float64 { return float64(t.Sub(epoch).Microseconds()) }
	events := make([]chromeEvent, 0, len(ivs)+2*len(flows)+len(markers)+1)
	if name != "" {
		events = append(events, chromeEvent{
			Name:  "process_name",
			Phase: "M",
			PID:   pid,
			Args:  map[string]any{"name": name},
		})
	}
	for _, iv := range ivs {
		events = append(events, chromeEvent{
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
		events = append(events, chromeEvent{
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
	for _, m := range markers {
		ev := chromeEvent{
			Name:  m.Name,
			Cat:   "lifecycle",
			Phase: "i",
			TsUS:  us(m.At),
			PID:   pid,
			TID:   m.Rank,
			Scope: "t", // thread-scoped: the flag sits on the rank's track
		}
		if m.Note != "" {
			ev.Args = map[string]any{"detail": m.Note}
		}
		events = append(events, ev)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"traceEvents": events}); err != nil {
		return fmt.Errorf("trace: encoding chrome trace: %w", err)
	}
	return nil
}
