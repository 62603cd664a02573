// Command modulerun executes the pedagogic modules' activities on the
// message-passing runtime, mirroring how a student would run them on the
// cluster:
//
//	modulerun -list
//	modulerun -module 3
//	modulerun -activity sort-histogram -np 8
//	modulerun -activity ping-pong -transport tcp
//	modulerun -activity kmeans-weighted-means -stats
//	modulerun -deadlock-demo
//	modulerun -warmup global-sum
//	modulerun -activity range-query-brute -scale 1,2,4,8
//	modulerun -weak kmeans -scale 1,2,4
//	modulerun -checkpoint /tmp/kmeans.ckpt -ckpt-every 5   # checkpointed k-means
//	modulerun -restart /tmp/kmeans.ckpt                    # resume, bit-identical
//	modulerun -activity hash-join -rma                     # one-sided RMA build phase
//	modulerun -activity hash-join -inject frame=delay:prob=0.02:seed=7 -transport tcp
//	modulerun -activity ddp -transport tcp                 # overlapped DDP training
//	modulerun -activity ddp-zero1 -overlap=off -bucket-bytes 65536
//	modulerun -activity ddp -transport tcp -reliable -inject frame=drop:prob=0.02:seed=7
//	modulerun -respawn -inject rank=2:call=8:kill          # full-width recovery from checkpoint
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/faults"
	"repro/internal/modules/comm"
	"repro/internal/modules/kmeans"
	"repro/internal/mpi"
	"repro/internal/prof"
	"repro/internal/telemetry"
	"repro/internal/warmup"
)

// options collects every modulerun flag. Keeping them in one struct (and
// building the flag set in newFlagSet) lets the help test capture the
// usage text and lets run be exercised without a process boundary.
type options struct {
	list        bool
	module      int
	activity    string
	np          int
	transport   string
	stats       bool
	deadlock    bool
	warmupName  string
	showTrace   bool
	profile     bool
	scale       string
	chrome      string
	weak        string
	checkpoint  string
	ckptEvery   int
	restart     string
	rma         bool
	overlap     string
	bucketBytes int
	inject      string
	heartbeat   time.Duration
	opTimeout   time.Duration
	latency     time.Duration
	reliable    bool
	respawn     bool
	metrics     bool
}

// newFlagSet defines every flag on a fresh FlagSet bound to o. main and
// the golden help test share this, so the documented surface cannot
// drift from the parsed one.
func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("modulerun", flag.ContinueOnError)
	fs.BoolVar(&o.list, "list", false, "list activities and exit")
	fs.IntVar(&o.module, "module", 0, "run every activity of one module (1-8)")
	fs.StringVar(&o.activity, "activity", "", "run one activity by name")
	fs.IntVar(&o.np, "np", 0, "rank count (0 = activity default)")
	fs.StringVar(&o.transport, "transport", "channel", "transport: channel or tcp")
	fs.BoolVar(&o.stats, "stats", false, "print the communication accounting after each run")
	fs.BoolVar(&o.deadlock, "deadlock-demo", false, "run Module 1's intentional deadlock (and its fix)")
	fs.StringVar(&o.warmupName, "warmup", "", "grade the reference solution of one warmup exercise")
	fs.BoolVar(&o.showTrace, "trace", false, "render a Gantt chart of compute/communication phases (profiler-derived)")
	fs.BoolVar(&o.profile, "profile", false, "print the PMPI-style wait-state profile after each run")
	fs.StringVar(&o.scale, "scale", "", "comma-separated rank counts: run a strong-scaling study of -activity")
	fs.StringVar(&o.chrome, "chrome", "", "write a Chrome trace-event JSON with message-flow arrows to this file (view in ui.perfetto.dev)")
	fs.StringVar(&o.weak, "weak", "", "run a weak-scaling study of a sized workload (see -list)")
	fs.StringVar(&o.checkpoint, "checkpoint", "", "run the Module-5 k-means with periodic checkpoints written to this file")
	fs.IntVar(&o.ckptEvery, "ckpt-every", 5, "iterations between checkpoint saves (with -checkpoint)")
	fs.StringVar(&o.restart, "restart", "", "resume the Module-5 k-means from this checkpoint file (bit-identical to the uninterrupted run)")
	fs.BoolVar(&o.rma, "rma", false, "run the hash join with the one-sided RMA build phase (alone, or with -activity hash-join or -module 7)")
	fs.StringVar(&o.overlap, "overlap", "on", "ddp activities: overlap bucket collectives with backward compute (on or off)")
	fs.IntVar(&o.bucketBytes, "bucket-bytes", 0, "ddp activities: gradient bucket byte cap (0 = module default, 256 KiB)")
	fs.StringVar(&o.inject, "inject", "", "deterministic fault plan for the run, e.g. rank=2:call=50:kill or frame=drop:prob=0.01:seed=7")
	fs.DurationVar(&o.heartbeat, "heartbeat", 0, "failure-detection heartbeat interval (0 = off, but the default on the tcp transport when -inject is set)")
	fs.DurationVar(&o.opTimeout, "op-timeout", 0, "per-operation timeout: blocked primitives fail with a timeout instead of hanging (0 = off)")
	fs.DurationVar(&o.latency, "latency", 0, "emulate an interconnect with this one-way wire latency on every cross-rank message (e.g. 1ms; 0 = off)")
	fs.BoolVar(&o.reliable, "reliable", false, "reliable links on either transport: per-link sequencing, acks, retransmission and CRC32C checksums (survives -inject frame drop/dup/corrupt/reorder)")
	fs.BoolVar(&o.respawn, "respawn", false, "run the Module-5 k-means through respawn recovery: a killed rank (see -inject) is replaced at full width from the latest checkpoint, bit-identical to the failure-free run")
	fs.BoolVar(&o.metrics, "metrics", false, "serve per-rank /metrics + /debug/pprof/ endpoints (ephemeral ports) during each activity and print the cross-rank merged snapshot")
	return fs
}

func main() {
	var o options
	fs := newFlagSet(&o)
	fs.SetOutput(os.Stderr)
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2) // the flag package already reported the problem
	}
	if err := run(&o, fs); err != nil {
		fmt.Fprintln(os.Stderr, "modulerun:", err)
		os.Exit(1)
	}
}

// applyRMA resolves the -rma flag onto the activity/module selection:
// the hash-join activity is substituted by its one-sided variant, and a
// bare -rma runs hash-join-rma directly. Any other selection is a usage
// error — the flag only swaps the Module-7 build phase.
func applyRMA(o *options) error {
	if !o.rma {
		return nil
	}
	switch o.activity {
	case "hash-join":
		o.activity = "hash-join-rma"
	case "hash-join-rma", "":
	default:
		return fmt.Errorf("-rma applies only to the hash-join activity (got -activity %s)", o.activity)
	}
	if o.activity == "" {
		if o.module != 0 && o.module != 7 {
			return fmt.Errorf("-rma applies only to module 7 (got -module %d)", o.module)
		}
		if o.module == 0 && !o.list {
			o.activity = "hash-join-rma"
		}
	}
	return nil
}

// applyDDP resolves the -overlap/-bucket-bytes flags onto one activity:
// the Module-8 training activities are rebuilt with the requested
// schedule, everything else passes through untouched (the flags default
// to the module's own behaviour, so they are not usage errors
// elsewhere).
func applyDDP(o *options, a core.Activity) (core.Activity, error) {
	switch o.overlap {
	case "on", "off", "": // "" = options built without flag parsing
	default:
		return a, fmt.Errorf("-overlap must be on or off (got %q)", o.overlap)
	}
	if o.bucketBytes < 0 {
		return a, fmt.Errorf("-bucket-bytes must be >= 0 (got %d)", o.bucketBytes)
	}
	if a.Name != "ddp" && a.Name != "ddp-zero1" {
		return a, nil
	}
	return core.DDPActivityConfig(a, o.overlap != "off", o.bucketBytes), nil
}

// faultOptions turns the fault-injection flags (faults.Options, shared
// with mpirun) and -latency into runtime options for a single launch.
// The scaling-study paths manage their own worlds, so injection there is
// rejected rather than silently dropped.
func faultOptions(o *options) (*faults.Plan, []mpi.Option, error) {
	plan, opts, err := faults.Options(o.inject, o.heartbeat, o.opTimeout, o.reliable)
	if err == nil && o.latency > 0 {
		opts = append(opts, mpi.WithLinkLatency(o.latency))
	}
	return plan, opts, err
}

func run(o *options, fs *flag.FlagSet) error {
	tcp := false
	switch o.transport {
	case "channel":
	case "tcp":
		tcp = true
	default:
		return fmt.Errorf("unknown transport %q (channel or tcp)", o.transport)
	}
	if err := applyRMA(o); err != nil {
		return err
	}
	plan, faultOpts, err := faultOptions(o)
	if err != nil {
		return err
	}
	if len(faultOpts) > 0 && (o.scale != "" || o.weak != "") {
		return errors.New("-inject/-heartbeat/-op-timeout/-latency/-reliable are unavailable with scaling studies (each study point owns its world)")
	}

	switch {
	case o.respawn:
		return runRespawnKmeans(o, tcp, plan, faultOpts)

	case o.checkpoint != "" || o.restart != "":
		if o.checkpoint != "" && o.restart != "" {
			return errors.New("-checkpoint and -restart are exclusive (both name the checkpoint file)")
		}
		path, resume := o.checkpoint, false
		if o.restart != "" {
			path, resume = o.restart, true
		}
		return runCheckpointKmeans(o.np, tcp, path, o.ckptEvery, resume)

	case o.list:
		fmt.Printf("%-26s %-3s %-3s %s\n", "ACTIVITY", "MOD", "NP", "DESCRIPTION")
		for _, a := range core.All() {
			fmt.Printf("%-26s %-3d %-3d %s\n", a.Name, a.Module, a.DefaultNP, a.Description)
		}
		fmt.Println("\nwarmup exercises (run with -warmup <name>):")
		for _, ex := range warmup.Exercises() {
			fmt.Printf("%-26s %-3s %-3d %s\n", ex.Name, "W", ex.DefaultNP, ex.Statement)
		}
		fmt.Println("\nweak-scaling workloads (run with -weak <name> -scale 1,2,4):")
		for _, sa := range core.SizedRegistry() {
			fmt.Printf("%-26s %-3s %-3s %s\n", sa.Name, "S", "-", sa.Description)
		}
		return nil

	case o.deadlock:
		fmt.Println("running the head-to-head synchronous exchange (every rank sends first)...")
		err := comm.DeadlockDemo(2)
		if !errors.Is(err, mpi.ErrDeadlock) {
			return fmt.Errorf("expected the deadlock detector to fire, got: %v", err)
		}
		fmt.Printf("  runtime detected: %v\n", err)
		fmt.Println("running the fixed exchange (odd ranks receive first)...")
		if err := comm.DeadlockFixed(2); err != nil {
			return err
		}
		fmt.Println("  completed without deadlock")
		return nil

	case o.weak != "":
		sa, ok := core.FindSized(o.weak)
		if !ok {
			return fmt.Errorf("no sized workload %q (try -list)", o.weak)
		}
		ranks, err := parseRanks(o.scale)
		if err != nil {
			return err
		}
		series, err := core.WeakScalingStudy(sa, ranks, 3, tcp)
		if err != nil {
			return err
		}
		report, err := core.WeakScalingReport(series)
		if err != nil {
			return err
		}
		fmt.Print(report)
		return nil

	case o.activity != "" && o.scale != "":
		a, ok := core.Find(o.activity)
		if !ok {
			return fmt.Errorf("no activity %q (try -list)", o.activity)
		}
		if a, err = applyDDP(o, a); err != nil {
			return err
		}
		ranks, err := parseRanks(o.scale)
		if err != nil {
			return err
		}
		series, err := core.ScalingStudy(a, ranks, 3, tcp)
		if err != nil {
			return err
		}
		report, err := core.ScalingReport(series)
		if err != nil {
			return err
		}
		fmt.Print(report)
		return nil

	case o.activity != "":
		a, ok := core.Find(o.activity)
		if !ok {
			return fmt.Errorf("no activity %q (try -list)", o.activity)
		}
		if a, err = applyDDP(o, a); err != nil {
			return err
		}
		return reportFault(plan, launch(a, o, tcp, faultOpts, 1))

	case o.warmupName != "":
		ex, ok := warmup.Find(o.warmupName)
		if !ok {
			return fmt.Errorf("no warmup exercise %q (try -list)", o.warmupName)
		}
		fmt.Printf("exercise: %s\n  %s\n", ex.Name, ex.Statement)
		if err := warmup.GradeReference(ex, o.np); err != nil {
			return err
		}
		fmt.Println("reference solution graded: full marks")
		return nil

	case o.module >= 1 && o.module <= 8:
		job := 0
		for _, a := range core.All() {
			if a.Module != o.module {
				continue
			}
			if o.rma && a.Name == "hash-join" {
				continue // substituted by hash-join-rma below
			}
			if a, err = applyDDP(o, a); err != nil {
				return err
			}
			job++
			if err := reportFault(plan, launch(a, o, tcp, faultOpts, job)); err != nil {
				return err
			}
		}
		return nil

	default:
		fs.Usage()
		return errors.New("choose -list, -module, -activity, -warmup or -deadlock-demo")
	}
}

// reportFault reports a kill plan that fired (faults.Plan.Fired) as
// mpirun does, and passes any other error on.
func reportFault(plan *faults.Plan, err error) error {
	if plan.Fired(err) {
		fmt.Fprintf(os.Stderr, "modulerun: fault plan %q fired: %v\n", plan, err)
		return nil
	}
	return err
}

// runCheckpointKmeans runs the Module-5 k-means workload (the same
// dataset and configuration as the kmeans-weighted-means activity) with
// rank 0 persisting (iteration, centroids) to a checkpoint file. With
// resume, the run restores the latest checkpoint first; because every
// iteration is a deterministic function of the restored state, the
// resumed run reproduces the uninterrupted run's centroids bit for bit.
func runCheckpointKmeans(np int, tcp bool, path string, every int, resume bool) error {
	if np <= 0 {
		np = 4
	}
	if every <= 0 {
		every = 5
	}
	cp := ckpt.NewFile(path)
	var res kmeans.Result
	runner := func(c *mpi.Comm) error {
		pts, _ := data.GaussianMixture(4096, 2, 5, 1.0, 100, 31)
		cfg := kmeans.Config{K: 5, MaxIter: 50, Seed: 2, Restart: resume, CheckpointEvery: every}
		if c.Rank() == 0 {
			cfg.Checkpoint = cp
		}
		r, _, _, err := kmeans.Distributed(c, pts, cfg)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			res = r
		}
		return nil
	}
	var err error
	if tcp {
		err = mpi.RunTCP(np, runner)
	} else {
		err = mpi.Run(np, runner)
	}
	if err != nil {
		return err
	}
	mode := "checkpointing"
	if resume {
		mode = "restarted"
	}
	fmt.Printf("[module 5] kmeans (%s, file %s, every %d iters): %d iters (converged=%v), inertia %.1f\n",
		mode, path, every, res.Iterations, res.Converged, res.Inertia)
	if step, _, ok, lerr := cp.Load(); lerr == nil && ok {
		fmt.Printf("  latest checkpoint: iteration %d\n", step)
	}
	return nil
}

// runRespawnKmeans demonstrates full-width recovery on the Module-5
// k-means: the run checkpoints periodically, and when a fault plan kills
// a rank mid-iteration the survivors rebuild the world at its original
// width (RespawnAndRestore), the replacement restores from the latest
// checkpoint, and the run finishes. A failure-free reference run of the
// same configuration verifies the recovered centroids bit for bit.
func runRespawnKmeans(o *options, tcp bool, plan *faults.Plan, faultOpts []mpi.Option) error {
	np := o.np
	if np <= 0 {
		np = 4
	}
	every := o.ckptEvery
	if every <= 0 {
		every = 5
	}
	pts, _ := data.GaussianMixture(4096, 2, 5, 1.0, 100, 31)
	attempt := func(opts ...mpi.Option) (kmeans.Result, error) {
		cfg := kmeans.Config{K: 5, MaxIter: 50, Seed: 2, Checkpoint: ckpt.NewMem(), CheckpointEvery: every}
		var mu sync.Mutex
		var res kmeans.Result
		runner := func(c *mpi.Comm) error {
			r, _, _, err := kmeans.DistributedResilient(c, pts, cfg)
			if err != nil {
				return err
			}
			// The centroids, inertia and iteration count are identical on
			// every rank (the update is a collective), so any completing
			// rank's copy is the run's result — a killed rank never
			// completes, but its survivors do.
			mu.Lock()
			res = r
			mu.Unlock()
			return nil
		}
		var err error
		if tcp {
			err = mpi.RunTCP(np, runner, opts...)
		} else {
			err = mpi.Run(np, runner, opts...)
		}
		return res, err
	}
	reference, err := attempt()
	if err != nil {
		return fmt.Errorf("failure-free reference run: %w", err)
	}
	before := mpi.ReliabilityStats()
	recovered, err := attempt(faultOpts...)
	if err = reportFault(plan, err); err != nil {
		return err
	}
	identical := len(recovered.Centroids.Coords) == len(reference.Centroids.Coords) &&
		len(recovered.Centroids.Coords) > 0
	for i := range recovered.Centroids.Coords {
		if !identical || recovered.Centroids.Coords[i] != reference.Centroids.Coords[i] {
			identical = false
			break
		}
	}
	fmt.Printf("[module 5] kmeans (respawn recovery): %d iters (converged=%v), inertia %.1f\n",
		recovered.Iterations, recovered.Converged, recovered.Inertia)
	fmt.Printf("  ranks respawned: %d; centroids bit-identical to the failure-free run: %v\n",
		mpi.ReliabilityStats().Sub(before).Respawns, identical)
	if !identical {
		return errors.New("recovered centroids diverged from the failure-free run")
	}
	return nil
}

// parseRanks parses a comma-separated rank list (default 1,2,4).
func parseRanks(scale string) ([]int, error) {
	if scale == "" {
		return []int{1, 2, 4}, nil
	}
	var ranks []int
	for _, f := range strings.Split(scale, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad -scale entry %q: %w", f, err)
		}
		ranks = append(ranks, n)
	}
	return ranks, nil
}

// launch runs one activity, auto-instrumented through the runtime's hook
// layer when any observability output is requested. job becomes the
// Chrome-trace pid, so traces from several activities can be merged in
// Perfetto without rank timelines colliding.
func launch(a core.Activity, o *options, tcp bool, faultOpts []mpi.Option, job int) error {
	opts := append([]mpi.Option(nil), faultOpts...)
	var pc *prof.Collector
	if o.showTrace || o.profile || o.chrome != "" {
		pc = prof.New()
	}
	var set *telemetry.MPISet
	if o.metrics {
		np := o.np
		if np <= 0 {
			np = a.DefaultNP
		}
		set = telemetry.NewMPISet(np)
		servers, err := telemetry.ServeRanks("127.0.0.1:0", set)
		if err != nil {
			return err
		}
		defer telemetry.CloseAll(servers)
		fmt.Fprint(os.Stderr, telemetry.ListenMap(servers))
	}
	var hooks []mpi.Hook
	if pc != nil {
		hooks = append(hooks, pc)
	}
	if set != nil {
		hooks = append(hooks, set)
	}
	if h := mpi.MultiHook(hooks...); h != nil {
		opts = append(opts, mpi.WithHook(h))
	}
	summary, snap, err := a.Launch(o.np, tcp, opts...)
	if err != nil {
		return fmt.Errorf("activity %s: %w", a.Name, err)
	}
	fmt.Printf("[module %d] %-26s %s\n", a.Module, a.Name, summary)
	if o.stats {
		fmt.Print(snap.String())
	}
	if set != nil {
		merged := set.Merge()
		fmt.Print(merged.Table(8))
		fmt.Print(merged.StragglerReport())
	}
	if pc == nil {
		return nil
	}
	if o.showTrace {
		fmt.Print(prof.GanttOf(pc.Intervals(), 72))
		fmt.Print(prof.SummaryOf(prof.Summarize(pc.Events())))
	}
	if o.profile {
		fmt.Print(prof.Report(pc.Events()))
	}
	if o.chrome != "" {
		f, err := os.Create(o.chrome)
		if err != nil {
			return err
		}
		if err := pc.WriteChromeTrace(f, job, a.Name); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("chrome trace written to %s (open in chrome://tracing or ui.perfetto.dev)\n", o.chrome)
	}
	return nil
}
