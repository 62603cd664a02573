// Command sbatch drives the simulated SLURM-like cluster of the ancillary
// module: submit jobs, inspect the queue, and replay the co-scheduling
// scenarios the paper's Module 4 and Section IV-B build on.
//
//	sbatch -demo backfill     # FIFO + EASY backfill walkthrough
//	sbatch -demo twins        # terrible-twins bandwidth contention
//	sbatch -demo quiz4        # the Section IV-B placement decision
//	sbatch -demo sacct        # profiled module runs feeding the accounting ledger
//	sbatch -demo faults       # node failure, --requeue backoff, repair
//	sbatch -demo saturation   # knee search: where FIFO and backfill give out
//	sbatch -nodes 4 -jobs "alpha:32:60s,beta:16:30s,gamma:64:45s"
//	sbatch -script job.sh -runtime 45s
//	sbatch -workload "diurnal:peak=2000/h,trough=200/h;runtime=pareto:1.5,30s,30m;tasks=zipf:64" -njobs 100000
//	sbatch -workload "poisson:1200/h;runtime=exp:90s;tasks=uniform:1,32;timelimit=4x" -sweep knee -policy fifo
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/prof"
	"repro/internal/telemetry"
)

// options collects every sbatch flag; newFlagSet defines them on a
// fresh FlagSet so the golden help test captures exactly the surface
// main parses.
type options struct {
	demo    string
	nodes   int
	jobs    string
	script  string
	runtime time.Duration
	metrics bool

	workload  string
	seed      int64
	njobs     int
	policy    string
	mult      float64
	sweep     string
	faultSpec string
	repair    time.Duration
}

func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("sbatch", flag.ContinueOnError)
	fs.StringVar(&o.demo, "demo", "", "scenario: backfill, twins, quiz4, sacct, faults or saturation")
	fs.IntVar(&o.nodes, "nodes", 4, "cluster size for -jobs and -workload")
	fs.StringVar(&o.jobs, "jobs", "", "comma-separated name:tasks:duration job list")
	fs.StringVar(&o.script, "script", "", "SLURM batch script to parse and submit")
	fs.DurationVar(&o.runtime, "runtime", 30*time.Second, "simulated runtime for -script jobs")
	fs.BoolVar(&o.metrics, "metrics", false, "serve the scheduler's gauge registry at /metrics (+ /debug/pprof/) on an ephemeral port during the run")
	fs.StringVar(&o.workload, "workload", "", "generated workload spec, e.g. 'diurnal:peak=2000/h,trough=200/h;runtime=pareto:1.5,30s;tasks=zipf:64' (see internal/workload)")
	fs.Int64Var(&o.seed, "seed", 1, "workload generator seed (same seed = bit-identical stream)")
	fs.IntVar(&o.njobs, "njobs", 20000, "jobs to stream from -workload")
	fs.StringVar(&o.policy, "policy", "backfill", "scheduling policy for -workload: backfill (EASY) or fifo")
	fs.Float64Var(&o.mult, "mult", 1, "arrival-rate multiplier for a single -workload run")
	fs.StringVar(&o.sweep, "sweep", "", "saturation sweep over arrival-rate multipliers: 'knee' bisects the saturation knee, or give points like '0.5,1,2,4'")
	fs.StringVar(&o.faultSpec, "faults", "", "fault plan applied to -workload runs, node rules only (e.g. 'node=0:at=30m,node=1:at=2h')")
	fs.DurationVar(&o.repair, "repair", 0, "repair each -faults node failure this long after it fires (0 = stays down)")
	return fs
}

func main() {
	var o options
	fs := newFlagSet(&o)
	fs.SetOutput(os.Stderr)
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2) // the flag package already reported the problem
	}

	var g *cluster.Gauges
	var srv *telemetry.Server
	if o.metrics {
		reg := telemetry.NewRegistry()
		g = cluster.NewGauges(reg)
		var err error
		srv, err = telemetry.NewServer(0, "127.0.0.1:0", reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sbatch:", err)
			os.Exit(1)
		}
		fmt.Fprint(os.Stderr, telemetry.ListenMap([]*telemetry.Server{srv}))
	}
	err := run(&o, fs, g)
	if srv != nil {
		_ = srv.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sbatch:", err)
		os.Exit(1)
	}
}

// observe refreshes the scheduler gauges when -metrics is on; the
// simulated cluster is single-threaded, so gauges are sampled at phase
// boundaries rather than from inside the event loop.
func observe(g *cluster.Gauges, c *cluster.Cluster) {
	if g != nil {
		g.Observe(c)
	}
}

func run(o *options, fs *flag.FlagSet, g *cluster.Gauges) error {
	switch o.demo {
	case "backfill":
		return demoBackfill(g)
	case "twins":
		return demoTwins()
	case "quiz4":
		return demoQuiz4()
	case "sacct":
		return demoSacct(g)
	case "faults":
		return demoFaults(g)
	case "saturation":
		return demoSaturation()
	case "":
		if o.workload != "" {
			return runWorkload(o, g)
		}
		if o.script != "" {
			return runScript(o.nodes, o.script, o.runtime, g)
		}
		if o.jobs == "" {
			fs.Usage()
			return errors.New("choose -demo, -jobs, -script or -workload")
		}
		return runJobList(o.nodes, o.jobs, g)
	default:
		return fmt.Errorf("unknown demo %q", o.demo)
	}
}

// runScript parses a SLURM batch script, submits it to a fresh cluster
// with the given simulated runtime, and reports its lifecycle.
func runScript(nodes int, path string, runtime time.Duration, g *cluster.Gauges) error {
	body, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	spec, err := cluster.ParseScript(string(body))
	if err != nil {
		return err
	}
	spec.BaseTime = runtime
	c, err := cluster.New(nodes, perfmodel.DefaultMachine())
	if err != nil {
		return err
	}
	id, err := c.Submit(spec)
	if err != nil {
		return err
	}
	fmt.Printf("Submitted batch job %d\n", id)
	fmt.Printf("  name=%q ntasks=%d ntasks-per-node=%d exclusive=%v time-limit=%v\n",
		spec.Name, spec.Tasks, spec.TasksPerNode, spec.Exclusive, spec.TimeLimit)
	observe(g, c)
	c.Drain()
	observe(g, c)
	j, err := c.Status(id)
	if err != nil {
		return err
	}
	fmt.Printf("  state %v, started %v, ended %v (ran on %d nodes)\n", j.State, j.StartTime, j.EndTime, j.NumNodes)
	if j.State == cluster.TimedOut {
		fmt.Println("  the job exceeded its #SBATCH --time limit and was killed")
	}
	return nil
}

func runJobList(nodes int, list string, g *cluster.Gauges) error {
	c, err := cluster.New(nodes, perfmodel.DefaultMachine())
	if err != nil {
		return err
	}
	for _, spec := range strings.Split(list, ",") {
		parts := strings.Split(spec, ":")
		if len(parts) != 3 {
			return fmt.Errorf("job %q is not name:tasks:duration", spec)
		}
		tasks, err := strconv.Atoi(parts[1])
		if err != nil {
			return fmt.Errorf("job %q: %w", spec, err)
		}
		dur, err := time.ParseDuration(parts[2])
		if err != nil {
			return fmt.Errorf("job %q: %w", spec, err)
		}
		id, err := c.Submit(cluster.JobSpec{Name: parts[0], Tasks: tasks, BaseTime: dur, TimeLimit: 2 * dur})
		if err != nil {
			return err
		}
		fmt.Printf("Submitted batch job %d (%s)\n", id, parts[0])
	}
	observe(g, c)
	fmt.Println("\nsqueue at t=0:")
	fmt.Print(c.Squeue())
	fmt.Println("sinfo at t=0:")
	fmt.Print(c.Sinfo())
	c.Drain()
	observe(g, c)
	fmt.Println("\ncompletion report:")
	for _, j := range c.Jobs() {
		fmt.Printf("  job %d %-12s %v  submit %-8v start %-8v end %-8v\n",
			j.ID, j.Spec.Name, j.State, j.SubmitTime, j.StartTime, j.EndTime)
	}
	st := c.Stats()
	fmt.Printf("\nworkload: %d jobs, makespan %v, mean wait %v (max %v), utilization %.1f%%\n",
		st.Jobs, st.Makespan, st.MeanWait, st.MaxWait, st.Utilization*100)
	return nil
}

func demoBackfill(g *cluster.Gauges) error {
	fmt.Println("EASY backfill: a wide job waits while a short narrow job slips ahead")
	c, err := cluster.New(1, perfmodel.DefaultMachine())
	if err != nil {
		return err
	}
	for _, spec := range []cluster.JobSpec{
		{Name: "long-20core", Tasks: 20, BaseTime: 100 * time.Second, TimeLimit: 100 * time.Second},
		{Name: "wide-32core", Tasks: 32, BaseTime: 10 * time.Second, TimeLimit: 10 * time.Second},
		{Name: "small-4core", Tasks: 4, BaseTime: 30 * time.Second, TimeLimit: 30 * time.Second},
	} {
		if _, err := c.Submit(spec); err != nil {
			return err
		}
	}
	observe(g, c)
	fmt.Println("\nsqueue just after submission (small-4core backfilled, wide waits):")
	fmt.Print(c.Squeue())
	c.Drain()
	observe(g, c)
	fmt.Println("\ncompletion report:")
	for _, j := range c.Jobs() {
		fmt.Printf("  job %d %-12s start %-6v end %-6v\n", j.ID, j.Spec.Name, j.StartTime, j.EndTime)
	}
	fmt.Println("\nwide-32core started exactly when long-20core finished: the backfilled")
	fmt.Println("job never delayed the reservation.")
	return nil
}

func demoTwins() error {
	fmt.Println("terrible twins: two identical memory-bound jobs sharing one node")
	kernel := perfmodel.MemoryBoundKernel("stream", 5e11, 0.1)

	solo, err := cluster.New(1, perfmodel.DefaultMachine())
	if err != nil {
		return err
	}
	id, err := solo.Submit(cluster.JobSpec{Name: "solo", Tasks: 10, Kernel: &kernel})
	if err != nil {
		return err
	}
	solo.Drain()
	j, _ := solo.Status(id)
	soloTime := j.EndTime - j.StartTime

	twins, err := cluster.New(1, perfmodel.DefaultMachine())
	if err != nil {
		return err
	}
	a, err := twins.Submit(cluster.JobSpec{Name: "twin-a", Tasks: 10, Kernel: &kernel})
	if err != nil {
		return err
	}
	if _, err := twins.Submit(cluster.JobSpec{Name: "twin-b", Tasks: 10, Kernel: &kernel}); err != nil {
		return err
	}
	twins.Drain()
	ja, _ := twins.Status(a)
	twinTime := ja.EndTime - ja.StartTime

	fmt.Printf("  dedicated node:   %v\n", soloTime)
	fmt.Printf("  sharing with twin: %v (%.2fx slowdown)\n", twinTime, float64(twinTime)/float64(soloTime))

	cpu := perfmodel.ComputeBoundKernel("dgemm", 3e12, 100)
	mixed, err := cluster.New(1, perfmodel.DefaultMachine())
	if err != nil {
		return err
	}
	b, err := mixed.Submit(cluster.JobSpec{Name: "stream", Tasks: 10, Kernel: &kernel})
	if err != nil {
		return err
	}
	if _, err := mixed.Submit(cluster.JobSpec{Name: "dgemm", Tasks: 10, Kernel: &cpu}); err != nil {
		return err
	}
	mixed.Drain()
	jb, _ := mixed.Status(b)
	fmt.Printf("  sharing with a compute-bound job instead: %v (%.2fx)\n",
		jb.EndTime-jb.StartTime, float64(jb.EndTime-jb.StartTime)/float64(soloTime))
	fmt.Println("\nco-scheduling identical memory-bound jobs is the worst pairing —")
	fmt.Println("the de Blanche & Lundqvist 'terrible twins' effect.")
	return nil
}

// demoSacct runs real module activities under the PMPI-style profiler
// and feeds the measured communication volume and wait fraction into the
// cluster's accounting ledger, the way a site's sacct records more than
// the scheduler alone can see.
func demoSacct(g *cluster.Gauges) error {
	fmt.Println("sacct: profiled module runs feeding the accounting ledger")
	c, err := cluster.New(2, perfmodel.DefaultMachine())
	if err != nil {
		return err
	}
	for _, name := range []string{"ping-pong", "kmeans-weighted-means"} {
		a, ok := core.Find(name)
		if !ok {
			return fmt.Errorf("no activity %q", name)
		}
		pc := prof.New()
		summary, _, err := a.Launch(0, false, mpi.WithHook(pc))
		if err != nil {
			return fmt.Errorf("activity %s: %w", name, err)
		}
		fmt.Printf("  ran %-22s %s\n", a.Name, summary)
		acct := prof.Account(pc.Events())
		base := acct.Elapsed
		if base < time.Millisecond {
			base = time.Millisecond
		}
		id, err := c.Submit(cluster.JobSpec{
			Name:     a.Name,
			Tasks:    a.DefaultNP,
			BaseTime: base,
			// the measured runtime bounds the limit generously
			TimeLimit: 100 * base,
		})
		if err != nil {
			return err
		}
		if err := c.AttachAccounting(id, cluster.Accounting{
			CommBytes: acct.CommBytes,
			WaitFrac:  acct.WaitFrac,
		}); err != nil {
			return err
		}
	}
	observe(g, c)
	c.Drain()
	observe(g, c)
	fmt.Println("\nsacct:")
	fmt.Print(c.Sacct())
	fmt.Println("\nCOMMBYTES and WAIT% come straight from the hook event stream of the")
	fmt.Println("profiled runs — the scheduler only knows elapsed time and width.")
	return nil
}

// demoFaults walks through the fault-tolerance path of the scheduler: a
// node failure (scheduled through the same deterministic fault grammar
// the MPI runtime uses) kills a resident job, --requeue resubmits it
// with exponential backoff, and the job finishes on the surviving node
// while the failed one sits down until repair.
func demoFaults(g *cluster.Gauges) error {
	fmt.Println("node failure and --requeue: the scheduler side of fault tolerance")
	plan, err := faults.Parse("node=0:at=20s")
	if err != nil {
		return err
	}
	c, err := cluster.New(2, perfmodel.DefaultMachine())
	if err != nil {
		return err
	}
	for _, spec := range []cluster.JobSpec{
		{Name: "alpha", Tasks: 20, Exclusive: true, Requeue: true, BaseTime: 60 * time.Second, TimeLimit: 5 * time.Minute},
		{Name: "beta", Tasks: 20, Exclusive: true, Requeue: true, BaseTime: 60 * time.Second, TimeLimit: 5 * time.Minute},
	} {
		if _, err := c.Submit(spec); err != nil {
			return err
		}
	}
	for _, ev := range plan.NodeEvents() {
		fmt.Printf("  fault plan %q: node %d fails at t=%v\n", plan, ev.Node, ev.At)
		if err := c.ScheduleNodeFail(ev.Node, ev.At); err != nil {
			return err
		}
	}
	if err := c.ScheduleNodeRepair(0, 3*time.Minute); err != nil {
		return err
	}
	c.RunUntil(25 * time.Second)
	observe(g, c)
	fmt.Println("\nsqueue just after the failure (alpha requeued, backing off):")
	fmt.Print(c.Squeue())
	fmt.Println("sinfo (node 0 is down):")
	fmt.Print(c.Sinfo())
	c.Drain()
	observe(g, c)
	fmt.Println("\ncompletion report:")
	for _, j := range c.Jobs() {
		fmt.Printf("  job %d %-6s %v  restarts %d  start %-6v end %-6v\n",
			j.ID, j.Spec.Name, j.State, j.Restarts, j.StartTime, j.EndTime)
	}
	st := c.Stats()
	fmt.Printf("\nworkload: %d jobs, %d completed, %d requeues, makespan %v\n",
		st.Jobs, st.Completed, st.Requeues, st.Makespan)
	fmt.Println("\nalpha lost its first 20s of work entirely — the scheduler restarts")
	fmt.Println("jobs from scratch. Pairing --requeue with application checkpoints")
	fmt.Println("(modulerun -checkpoint) is what makes restarts cheap.")
	return nil
}

func demoQuiz4() error {
	fmt.Println("Section IV-B: which of your two programs should share its node?")
	m := perfmodel.DefaultMachine()
	programs := [2]perfmodel.Job{
		{Name: "Program 1 (memory-bound)", Kernel: perfmodel.MemoryBoundKernel("p1", 1e11, 0.1), Ranks: 20},
		{Name: "Program 2 (compute-bound)", Kernel: perfmodel.ComputeBoundKernel("p2", 1e12, 100), Ranks: 20},
	}
	theirs := perfmodel.Job{Name: "other user's job", Kernel: perfmodel.MemoryBoundKernel("other", 1e11, 0.1), Ranks: 10}
	choice, slowdowns, err := m.CoScheduleChoice(programs, theirs)
	if err != nil {
		return err
	}
	for i, p := range programs {
		fmt.Printf("  share node %d (%s): predicted slowdown %.2fx\n", i+1, p.Name, slowdowns[i])
	}
	fmt.Printf("\nanswer: Program %d / Compute Node %d\n", choice+1, choice+1)
	return nil
}
