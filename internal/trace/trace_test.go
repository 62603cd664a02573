package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestSplitsAggregate(t *testing.T) {
	now := time.Now()
	splits := SplitsOf([]Interval{
		{Rank: 1, Kind: Compute, Label: "work", Start: now, Dur: 20 * time.Millisecond},
		{Rank: 0, Kind: Compute, Label: "work", Start: now, Dur: 30 * time.Millisecond},
		{Rank: 0, Kind: Comm, Label: "send", Start: now.Add(30 * time.Millisecond), Dur: 10 * time.Millisecond},
	})
	if len(splits) != 2 {
		t.Fatalf("got %d splits", len(splits))
	}
	if splits[0].Rank != 0 || splits[0].Compute != 30*time.Millisecond || splits[0].Comm != 10*time.Millisecond {
		t.Fatalf("rank 0 split %+v", splits[0])
	}
	if f := splits[0].CommFraction(); f < 0.24 || f > 0.26 {
		t.Fatalf("comm fraction %v, want 0.25", f)
	}
	if splits[1].Rank != 1 || splits[1].Compute != 20*time.Millisecond || splits[1].Comm != 0 {
		t.Fatalf("rank 1 split %+v", splits[1])
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

func TestSummary(t *testing.T) {
	s := SummaryOf([]Interval{{Rank: 0, Kind: Compute, Label: "x", Start: time.Now(), Dur: 10 * time.Millisecond}})
	if !strings.Contains(s, "comm%") || !strings.Contains(s, "compute") {
		t.Fatalf("summary: %q", s)
	}
}

func TestCommFractionIdle(t *testing.T) {
	var s Split
	if s.CommFraction() != 0 {
		t.Fatal("idle rank comm fraction should be 0")
	}
}

func TestWriteChromeTrace(t *testing.T) {
	now := time.Now()
	ivs := []Interval{
		{Rank: 0, Kind: Compute, Label: "assign", Start: now, Dur: 5 * time.Millisecond},
		{Rank: 1, Kind: Comm, Label: "allreduce", Start: now.Add(5 * time.Millisecond), Dur: 2 * time.Millisecond},
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, 0, "", now, ivs, nil, nil); err != nil {
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
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[1]
	if ev.Name != "allreduce" || ev.Cat != "comm" || ev.Phase != "X" || ev.TID != 1 {
		t.Fatalf("event %+v", ev)
	}
	if ev.Dur < 1900 || ev.Dur > 2100 {
		t.Fatalf("duration %v µs", ev.Dur)
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, 0, "", time.Now(), nil, nil, nil); err != nil {
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
	ivs := []Interval{{Rank: 0, Kind: Comm, Label: "send", Start: now, Dur: time.Millisecond}}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, 3, "job", now, ivs, nil, nil); err != nil {
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

// TestWriteChromeFlows checks the standalone exporter emits matched
// flow-start/flow-finish pairs binding the message arrow to its slices.
func TestWriteChromeFlows(t *testing.T) {
	epoch := time.Now()
	ivs := []Interval{
		{Rank: 0, Kind: Comm, Label: "send", Start: epoch, Dur: time.Millisecond},
		{Rank: 1, Kind: Comm, Label: "recv", Start: epoch, Dur: 2 * time.Millisecond},
	}
	flows := []Flow{{
		ID: 42, Name: "msg",
		FromRank: 0, FromTime: epoch.Add(time.Millisecond),
		ToRank: 1, ToTime: epoch.Add(2 * time.Millisecond),
	}}
	markers := []Marker{{Rank: 1, Name: "failure", Note: "rank 2 declared failed", At: epoch.Add(time.Millisecond)}}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, 9, "job", epoch, ivs, flows, markers); err != nil {
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
