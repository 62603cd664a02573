package prof

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/mpi"
)

// event is a hand-made primitive event for the exporter and split tests.
func event(rank int, p mpi.Primitive, start time.Time, dur time.Duration) mpi.Event {
	return mpi.Event{Rank: rank, Prim: p, Peer: -1, Tag: -1, Start: start, Dur: dur}
}

// collectorOf loads events into a collector whose time axis starts at
// epoch.
func collectorOf(epoch time.Time, events ...mpi.Event) *Collector {
	pc := &Collector{epoch: epoch}
	for _, e := range events {
		pc.Event(e)
	}
	return pc
}

func TestSplitsAggregate(t *testing.T) {
	now := time.Now()
	s := Summarize([]mpi.Event{
		event(1, mpi.PrimBarrier, now, 0),
		event(1, mpi.PrimBarrier, now.Add(20*time.Millisecond), 0),
		event(0, mpi.PrimBarrier, now, 0),
		event(0, mpi.PrimSend, now.Add(30*time.Millisecond), 10*time.Millisecond),
	})
	if s.Ranks != 2 {
		t.Fatalf("summary sees %d ranks", s.Ranks)
	}
	if s.Span[0]-s.CommTime[0] != 30*time.Millisecond || s.CommTime[0] != 10*time.Millisecond {
		t.Fatalf("rank 0 span %v, comm %v", s.Span[0], s.CommTime[0])
	}
	if s.Span[1]-s.CommTime[1] != 20*time.Millisecond || s.CommTime[1] != 0 {
		t.Fatalf("rank 1 span %v, comm %v", s.Span[1], s.CommTime[1])
	}
	if got := SummaryOf(s); !strings.Contains(got, " 25.0%") || !strings.Contains(got, "  0.0%") {
		t.Fatalf("comm fractions, want 25%% and 0%%:\n%s", got)
	}
}

func TestGanttRendering(t *testing.T) {
	now := time.Now()
	g := GanttOf([]Interval{
		{Rank: 0, Kind: Compute, Label: "a", Start: now, Dur: 50 * time.Millisecond},
		{Rank: 1, Kind: Comm, Label: "b", Start: now.Add(50 * time.Millisecond), Dur: 50 * time.Millisecond},
	}, 40)
	if !strings.Contains(g, "rank  0") || !strings.Contains(g, "rank  1") {
		t.Fatalf("gantt missing rows:\n%s", g)
	}
	if !strings.Contains(g, "#") || !strings.Contains(g, "~") {
		t.Fatalf("gantt missing marks:\n%s", g)
	}
	// Rank 0's compute occupies the first half, rank 1's comm the second.
	lines := strings.Split(g, "\n")
	row0 := lines[1]
	if !strings.Contains(row0[:len(row0)/2], "#") {
		t.Fatalf("rank 0 compute not in first half: %s", row0)
	}
}

func TestGanttEmpty(t *testing.T) {
	if g := GanttOf(nil, 20); !strings.Contains(g, "no trace") {
		t.Fatalf("empty gantt: %q", g)
	}
}

func TestSummaryOf(t *testing.T) {
	s := SummaryOf(Summarize([]mpi.Event{event(0, mpi.PrimBarrier, time.Now(), 10*time.Millisecond)}))
	if !strings.Contains(s, "comm%") || !strings.Contains(s, "compute") {
		t.Fatalf("summary: %q", s)
	}
}

// TestCommFractionIdle: a rank with no span renders a zero comm share,
// and a rank with no events renders no row.
func TestCommFractionIdle(t *testing.T) {
	s := SummaryOf(Summarize([]mpi.Event{event(1, mpi.PrimBarrier, time.Now(), 0)}))
	if strings.Contains(s, "\n     0 ") || !strings.Contains(s, "\n     1 ") || !strings.Contains(s, " 0.0%") {
		t.Fatalf("idle rank rendered wrong:\n%s", s)
	}
}

// TestWriteChromeSlices checks the exporter writes one "X" slice per
// primitive and one per compute gap, on the event's rank.
func TestWriteChromeSlices(t *testing.T) {
	now := time.Now()
	pc := collectorOf(now,
		event(1, mpi.PrimBarrier, now, 0),
		event(1, mpi.PrimAllreduce, now.Add(5*time.Millisecond), 2*time.Millisecond))
	var buf bytes.Buffer
	if err := pc.WriteChromeTrace(&buf, 0, ""); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Cat   string  `json:"cat"`
			Phase string  `json:"ph"`
			Dur   float64 `json:"dur"`
			TID   int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("%d events", len(doc.TraceEvents))
	}
	if ev := doc.TraceEvents[1]; ev.Name != "compute" || ev.Cat != "compute" || ev.Phase != "X" || ev.Dur != 5000 {
		t.Fatalf("compute slice %+v", ev)
	}
	ev := doc.TraceEvents[2]
	if ev.Name != "MPI_Allreduce" || ev.Cat != "comm" || ev.Phase != "X" || ev.TID != 1 {
		t.Fatalf("event %+v", ev)
	}
	if ev.Dur < 1900 || ev.Dur > 2100 {
		t.Fatalf("duration %v µs", ev.Dur)
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := New().WriteChromeTrace(&buf, 0, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "traceEvents") {
		t.Fatalf("output %q", buf.String())
	}
}

// TestSetPID checks the exported trace carries the given pid on every
// event — the knob that keeps ranks from several jobs on distinct
// process lanes when traces are merged in a viewer.
func TestSetPID(t *testing.T) {
	now := time.Now()
	var buf bytes.Buffer
	if err := collectorOf(now, event(0, mpi.PrimSend, now, time.Millisecond)).WriteChromeTrace(&buf, 3, "job"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			PID int `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no events")
	}
	for _, ev := range doc.TraceEvents {
		if ev.PID != 3 {
			t.Fatalf("event pid %d, want 3", ev.PID)
		}
	}
}

// TestWriteChromeFlows checks the exporter emits matched
// flow-start/flow-finish pairs binding the message arrow to its slices,
// and a lifecycle event as a thread-scoped instant marker.
func TestWriteChromeFlows(t *testing.T) {
	epoch := time.Now()
	send := event(0, mpi.PrimSend, epoch, time.Millisecond)
	send.SendID = 42
	recv := event(1, mpi.PrimRecv, epoch, 2*time.Millisecond)
	recv.RecvID = 42
	pc := collectorOf(epoch, send, recv)
	pc.Lifecycle(mpi.LifecycleEvent{Rank: 1, Kind: "failure", Detail: "rank 2 declared failed", Time: epoch.Add(time.Millisecond)})
	var buf bytes.Buffer
	if err := pc.WriteChromeTrace(&buf, 9, "job"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"ph":"s"`, `"ph":"f"`, `"bp":"e"`, `"pid":9`, `"id":42`,
		`"ph":"i"`, `"s":"t"`, `"name":"failure"`, `"cat":"lifecycle"`, `"detail":"rank 2 declared failed"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace %s is missing %s", out, want)
		}
	}
}
