package cluster_test

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/perfmodel"
	"repro/internal/workload"
)

// TestScheduleOracleStreams feeds the schedule twin generated arrival
// streams: every spec of the FuzzWorkloadSpec corpus that parses and fits
// the cluster (diurnal and bursty arrivals, zipf and uniform widths, time
// limits by factor and by constant, requeue), plus the bench's knee spec.
// Each runs at the nominal rate and at a rate that overloads two nodes, so
// the pass sees both a trivial queue and a deep one.
func TestScheduleOracleStreams(t *testing.T) {
	const nodes, jobs = 2, 150
	specs := []string{
		workload.DefaultSpec,
		"diurnal:peak=2000/h,trough=200/h;runtime=pareto:1.5,30s;tasks=zipf:64",
		"bursty:base=200/h,burst=4000/h,on=5m,off=1h;runtime=uniform:10s,90s;tasks=uniform:1,32",
		"poisson:0.5/s;runtime=fixed:30s;tasks=fixed:8;timelimit=2x;requeue",
		"poisson:1200/h;runtime=exp:45s,1h;tasks=zipf:16,2.5;timelimit=30m",
		"diurnal:peak=1/s,trough=0.01/s,period=90m",
		"poisson:1/s;runtime=pareto:1.01,1s",
		"poisson:1200/h;runtime=pareto:1.5,30s,30m;tasks=zipf:64,1.15;timelimit=4x",
	}
	cluster.ScheduleMatrix(t, func(t *testing.T, policy cluster.Policy, limit int, retain bool) {
		for i, raw := range specs {
			spec, err := workload.Parse(raw)
			if err != nil {
				t.Fatalf("%q: %v", raw, err)
			}
			if spec.MaxTasks() > nodes*perfmodel.DefaultMachine().CoresPerNode {
				t.Fatalf("%q: widest job does not fit %d nodes", raw, nodes)
			}
			for _, mult := range []float64{1, 8} {
				label := fmt.Sprintf("%q x%g", raw, mult)
				w := cluster.NewScheduleTwin(t, label, nodes, policy, limit, retain)
				g := workload.NewGenerator(spec, int64(i+1))
				g.SetRateMultiplier(mult)
				for n := 0; n < jobs; n++ {
					a := g.Next()
					w.RunUntil(a.At)
					w.Submit(a.Spec)
				}
				if events := w.Drain(); events < jobs {
					t.Fatalf("%s: only %d events for %d jobs", label, events, jobs)
				}
			}
		}
	})
}
