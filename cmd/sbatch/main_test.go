package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestHelpGolden pins the -help output so flag drift (adding, renaming
// or re-documenting a flag without regenerating the golden) fails CI.
// Regenerate with: go test ./cmd/sbatch -run HelpGolden -update
func TestHelpGolden(t *testing.T) {
	var o options
	fs := newFlagSet(&o)
	var buf bytes.Buffer
	fs.SetOutput(&buf)
	fs.Usage()
	got := buf.String()

	golden := filepath.Join("testdata", "help.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("help output drifted from %s (regenerate with -update)\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
	// The workload-generation flags must stay documented.
	for _, f := range []string{"-workload", "-seed", "-njobs", "-policy", "-sweep", "-faults", "-repair", "-mult"} {
		if !strings.Contains(got, f+" ") && !strings.Contains(got, f+"\n") {
			t.Errorf("help output does not document %s", f)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	if p, err := parsePolicy("fifo"); err != nil || p != cluster.PolicyFIFO {
		t.Errorf("parsePolicy(fifo) = %v, %v", p, err)
	}
	if p, err := parsePolicy("backfill"); err != nil || p != cluster.PolicyBackfill {
		t.Errorf("parsePolicy(backfill) = %v, %v", p, err)
	}
	if _, err := parsePolicy("sjf"); err == nil {
		t.Error("parsePolicy(sjf) did not error")
	}
}

// TestSaturationConfig covers the flag-to-config assembly, including
// the node-rules-only restriction on -faults.
func TestSaturationConfig(t *testing.T) {
	o := &options{
		workload:  "poisson:10/h;tasks=fixed:2",
		policy:    "fifo",
		seed:      7,
		njobs:     100,
		nodes:     3,
		faultSpec: "node=0:at=1m",
	}
	cfg, err := saturationConfig(o)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Policy != cluster.PolicyFIFO || cfg.Seed != 7 || cfg.Jobs != 100 || cfg.Nodes != 3 {
		t.Errorf("config = %+v does not reflect flags %+v", cfg, o)
	}
	if len(cfg.Faults) != 1 || cfg.Faults[0].Node != 0 {
		t.Errorf("faults = %+v, want the node=0 rule", cfg.Faults)
	}

	o.faultSpec = "rank=0:call=3:kill" // no node rules: useless for -workload
	if _, err := saturationConfig(o); err == nil {
		t.Error("fault plan without node rules accepted")
	}
	o.faultSpec = ""
	o.workload = "poisson:nope"
	if _, err := saturationConfig(o); err == nil {
		t.Error("invalid workload spec accepted")
	}
	o.workload = "poisson:10/h"
	o.policy = "sjf"
	if _, err := saturationConfig(o); err == nil {
		t.Error("invalid policy accepted")
	}
}

// captureStdout returns what fn prints on standard output.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	runErr := fn()
	os.Stdout = saved
	w.Close()
	got := <-out
	r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	return string(got)
}

// TestWorkloadMetricsSameRun: -workload prints the same report with and
// without -metrics, and the gauges -metrics fills describe the one
// simulation the report comes from.
func TestWorkloadMetricsSameRun(t *testing.T) {
	var o options
	args := []string{"-workload", "poisson:900/h;tasks=fixed:16", "-nodes", "2", "-njobs", "400",
		"-seed", "3", "-faults", "node=0:at=30m", "-repair", "1h"}
	if err := newFlagSet(&o).Parse(args); err != nil {
		t.Fatal(err)
	}
	plain := captureStdout(t, func() error { return runWorkload(&o, nil) })
	reg := telemetry.NewRegistry()
	metered := captureStdout(t, func() error { return runWorkload(&o, cluster.NewGauges(reg)) })
	if plain != metered {
		t.Fatalf("-metrics changed the report:\nwithout:\n%s\nwith:\n%s", plain, metered)
	}

	cfg, err := saturationConfig(&o)
	if err != nil {
		t.Fatal(err)
	}
	_, c, err := workload.Evaluate(cfg, o.mult)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if !strings.Contains(plain, fmt.Sprintf("(%d completed, %d timed out, %d node-failed, %d requeues)",
		st.Completed, st.TimedOut, st.NodeFailed, st.Requeues)) {
		t.Fatalf("report does not show the simulation's stats %+v:\n%s", st, plain)
	}
	var buf bytes.Buffer
	if err := telemetry.WritePrometheus(&buf, reg); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int{
		"cluster_jobs_completed_total": st.Completed,
		"cluster_requeues_total":       st.Requeues,
		"cluster_queue_depth":          0,
		"cluster_jobs_running":         0,
	} {
		if line := fmt.Sprintf("%s %d\n", name, want); !strings.Contains(buf.String(), line) {
			t.Errorf("gauges lack %q:\n%s", strings.TrimSpace(line), buf.String())
		}
	}
}
