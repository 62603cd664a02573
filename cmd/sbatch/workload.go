package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/workload"
)

// parsePolicy maps the -policy flag to a scheduler policy.
func parsePolicy(s string) (cluster.Policy, error) {
	switch s {
	case "backfill":
		return cluster.PolicyBackfill, nil
	case "fifo":
		return cluster.PolicyFIFO, nil
	default:
		return 0, fmt.Errorf("unknown policy %q (want backfill or fifo)", s)
	}
}

// saturationConfig assembles the workload flags into one experiment
// config shared by -workload, -sweep and -demo saturation.
func saturationConfig(o *options) (workload.SaturationConfig, error) {
	var cfg workload.SaturationConfig
	spec, err := workload.Parse(o.workload)
	if err != nil {
		return cfg, err
	}
	policy, err := parsePolicy(o.policy)
	if err != nil {
		return cfg, err
	}
	cfg = workload.SaturationConfig{
		Spec:        spec,
		Seed:        o.seed,
		Jobs:        o.njobs,
		Nodes:       o.nodes,
		Policy:      policy,
		RepairAfter: o.repair,
	}
	if o.faultSpec != "" {
		plan, err := faults.Parse(o.faultSpec)
		if err != nil {
			return cfg, err
		}
		cfg.Faults = plan.NodeEvents()
		if len(cfg.Faults) == 0 {
			return cfg, fmt.Errorf("fault plan %q has no node rules (only node=K:at=DUR applies to -workload)", o.faultSpec)
		}
	}
	return cfg, nil
}

// runWorkload streams a generated workload through one cluster (or, with
// -sweep, through a family of clusters at scaled arrival rates).
func runWorkload(o *options, g *cluster.Gauges) error {
	cfg, err := saturationConfig(o)
	if err != nil {
		return err
	}
	if o.sweep != "" {
		return runSweep(o, cfg)
	}

	point, c, err := workload.Evaluate(cfg, o.mult)
	if err != nil {
		return err
	}
	observe(g, c)
	st := point.Stats
	fmt.Printf("workload %q ×%g on %d nodes, policy %s, seed %d\n",
		cfg.Spec, o.mult, cfg.Nodes, cfg.Policy, cfg.Seed)
	fmt.Printf("  jobs       %d (%d completed, %d timed out, %d node-failed, %d requeues)\n",
		st.Jobs, st.Completed, st.TimedOut, st.NodeFailed, st.Requeues)
	fmt.Printf("  makespan   %v\n", st.Makespan.Round(time.Second))
	fmt.Printf("  wait       mean %v, p99 %v, max %v\n",
		st.MeanWait.Round(time.Millisecond), st.P99Wait.Round(time.Millisecond), st.MaxWait.Round(time.Millisecond))
	fmt.Printf("  runtime    mean %v\n", st.MeanRuntime.Round(time.Millisecond))
	fmt.Printf("  utilization %.1f%%\n", st.Utilization*100)
	if point.Saturated {
		fmt.Println("  SATURATED: queueing delay has overtaken service time")
	}
	return nil
}

// runSweep evaluates the workload across arrival-rate multipliers:
// either the explicit comma-separated points, or "knee" to bisect the
// saturation knee.
func runSweep(o *options, cfg workload.SaturationConfig) error {
	if o.sweep == "knee" {
		res, err := workload.FindKnee(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("saturation knee search: %q on %d nodes, policy %s\n", cfg.Spec, cfg.Nodes, cfg.Policy)
		printSweepTable(res.Points)
		fmt.Printf("\nknee at ×%.3f (bracket ×%.3f – ×%.3f): beyond this arrival rate the\n", res.Knee, res.Bracket[0], res.Bracket[1])
		fmt.Println("queue grows without bound and waits diverge.")
		return nil
	}

	var points []workload.SaturationPoint
	for _, f := range strings.Split(o.sweep, ",") {
		m, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || m <= 0 {
			return fmt.Errorf("sweep point %q: want a positive multiplier", f)
		}
		p, _, err := workload.Evaluate(cfg, m)
		if err != nil {
			return err
		}
		points = append(points, p)
	}
	fmt.Printf("saturation sweep: %q on %d nodes, policy %s\n", cfg.Spec, cfg.Nodes, cfg.Policy)
	printSweepTable(points)
	return nil
}

func printSweepTable(points []workload.SaturationPoint) {
	fmt.Printf("\n  %8s  %12s  %12s  %12s  %6s  %s\n", "mult", "mean wait", "p99 wait", "makespan", "util", "state")
	for _, p := range points {
		state := "stable"
		if p.Saturated {
			state = "SATURATED"
		}
		fmt.Printf("  %8.3f  %12v  %12v  %12v  %5.1f%%  %s\n",
			p.Mult,
			p.Stats.MeanWait.Round(time.Millisecond),
			p.Stats.P99Wait.Round(time.Millisecond),
			p.Stats.Makespan.Round(time.Second),
			p.Stats.Utilization*100,
			state)
	}
}

// demoSaturation tells the course story end to end: the same generated
// workload is pushed harder and harder under strict FIFO and under EASY
// backfill, and the knee — the arrival rate where waits diverge — lands
// visibly higher for backfill.
func demoSaturation() error {
	fmt.Println("saturation: how hard can you push a scheduler before waits diverge?")
	cfg := workload.SaturationConfig{
		Spec: workload.MustParse(
			"poisson:1200/h;runtime=pareto:1.5,30s,30m;tasks=zipf:64,1.15;timelimit=4x"),
		Seed:  5,
		Jobs:  2500,
		Nodes: 2,
		Lo:    0.0625,
		Hi:    8,
		Tol:   0.04,
	}
	fmt.Printf("workload: %q\n", cfg.Spec)
	fmt.Printf("cluster:  %d nodes; %d jobs per point; heavy-tailed runtimes, zipf widths\n\n", cfg.Nodes, cfg.Jobs)

	knees := make(map[string]float64)
	for _, policy := range []cluster.Policy{cluster.PolicyFIFO, cluster.PolicyBackfill} {
		cfg.Policy = policy
		res, err := workload.FindKnee(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("policy %s:\n", policy)
		printSweepTable(res.Points)
		fmt.Printf("  knee at ×%.3f\n\n", res.Knee)
		knees[policy.String()] = res.Knee
	}
	fmt.Printf("backfill sustains ×%.2f the arrival rate FIFO does before saturating:\n",
		knees["backfill"]/knees["fifo"])
	fmt.Println("wide jobs at the head of a FIFO queue idle the whole machine, while")
	fmt.Println("EASY backfill slips narrow jobs into the hole without delaying the")
	fmt.Println("reservation. The knee is the operator's capacity number — beyond it,")
	fmt.Println("every submitted job waits longer than the one before.")
	return nil
}
