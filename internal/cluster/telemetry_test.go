package cluster

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestGaugesObserve drives a small workload and checks the scheduler
// gauges at each phase: a full node with a queued job, then the drained
// end state. The exposition's lint check is TestClusterGaugesLint in
// internal/telemetry, where the linter lives.
func TestGaugesObserve(t *testing.T) {
	c := newTestCluster(t, 1)
	reg := telemetry.NewRegistry()
	g := NewGauges(reg)

	if _, err := c.Submit(JobSpec{Name: "a", Tasks: 32, BaseTime: 10 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(JobSpec{Name: "b", Tasks: 32, BaseTime: 5 * time.Second}); err != nil {
		t.Fatal(err)
	}
	g.Observe(c)
	snap := values(t, reg)
	if snap["cluster_queue_depth"] != 1 {
		t.Fatalf("queue depth = %g, want 1 (one job running, one queued)", snap["cluster_queue_depth"])
	}
	if snap["cluster_jobs_running"] != 1 {
		t.Fatalf("jobs running = %g, want 1", snap["cluster_jobs_running"])
	}
	if snap["cluster_nodes{state=allocated}"] != 1 {
		t.Fatalf("allocated nodes = %g, want 1", snap["cluster_nodes{state=allocated}"])
	}
	if snap["cluster_utilization_ppm"] != 1e6 {
		t.Fatalf("utilization = %g ppm, want 1e6 (node full)", snap["cluster_utilization_ppm"])
	}

	c.Drain()
	g.Observe(c)
	snap = values(t, reg)
	if snap["cluster_queue_depth"] != 0 || snap["cluster_jobs_running"] != 0 {
		t.Fatalf("drained cluster still shows work: %v", snap)
	}
	if snap["cluster_jobs_completed_total"] != 2 {
		t.Fatalf("completed = %g, want 2", snap["cluster_jobs_completed_total"])
	}
	if snap["cluster_nodes{state=idle}"] != 1 {
		t.Fatalf("idle nodes = %g, want 1", snap["cluster_nodes{state=idle}"])
	}
	if snap["cluster_jobs_per_second_ppm"] <= 0 {
		t.Fatalf("jobs/s = %g, want > 0", snap["cluster_jobs_per_second_ppm"])
	}
	// Two submissions over the 15 simulated seconds the drain took.
	if got := snap["cluster_arrival_rate_per_second_ppm"]; got != 133333 {
		t.Fatalf("arrival rate = %g ppm, want 133333 (2 jobs / 15 s)", got)
	}
	// Offered work was 32×10s + 32×5s = 480 core-seconds, exactly the
	// 32-core node's capacity over those 15 seconds.
	if got := snap["cluster_offered_load_ppm"]; got != 1e6 {
		t.Fatalf("offered load = %g ppm, want 1e6 (workload exactly fills the machine)", got)
	}

	var buf bytes.Buffer
	if err := telemetry.WritePrometheus(&buf, reg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `cluster_nodes{state="allocated(excl)"}`) {
		t.Fatalf("exposition missing node-state series:\n%s", buf.String())
	}
}

// values reads the registry the way a scrape does: every sample of its
// exposition, keyed name{k=v,...}.
func values(t *testing.T, reg *telemetry.Registry) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := telemetry.WritePrometheus(&buf, reg); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(buf.String(), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[strings.ReplaceAll(line[:i], `"`, "")] = v
	}
	return out
}
