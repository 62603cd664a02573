package telemetry_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/perfmodel"
	"repro/internal/telemetry"
)

// TestClusterGaugesLint lints the scheduler's gauge page, the one
// `sbatch -metrics` serves, with a queued job and again once drained.
func TestClusterGaugesLint(t *testing.T) {
	c, err := cluster.New(1, perfmodel.DefaultMachine())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	g := cluster.NewGauges(reg)
	for _, spec := range []cluster.JobSpec{
		{Name: "a", Tasks: 32, BaseTime: 10 * time.Second},
		{Name: "b", Tasks: 32, BaseTime: 5 * time.Second},
	} {
		if _, err := c.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	lint := func(phase string) {
		t.Helper()
		g.Observe(c)
		var buf bytes.Buffer
		if err := telemetry.WritePrometheus(&buf, reg); err != nil {
			t.Fatal(err)
		}
		if err := telemetry.Lint(buf.Bytes()); err != nil {
			t.Fatalf("cluster exposition (%s) fails lint: %v\n%s", phase, err, buf.String())
		}
	}
	lint("queued")
	c.Drain()
	lint("drained")
}
