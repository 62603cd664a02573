// Command mpirun launches built-in demonstration and microbenchmark
// programs on the message-passing runtime, in the style of OSU/IMB
// microbenchmarks:
//
//	mpirun -np 4 hello
//	mpirun -np 2 latency
//	mpirun -np 2 -transport tcp bandwidth
//	mpirun -np 8 allreduce
//	mpirun -np 8 pi
//	mpirun -np 4 -procs hello    # each rank in its own OS process
//	mpirun -np 8 -profile allreduce              # wait-state profile
//	mpirun -np 2 -trace-out lat.json latency     # Perfetto trace with flows
//	mpirun -np 4 -inject rank=2:call=50:kill resilient   # ULFM-style recovery
//	mpirun -np 2 -transport tcp -inject frame=drop:prob=0.01:seed=7 -op-timeout 2s latency
//	mpirun -np 2 -transport tcp -reliable -inject frame=drop:prob=0.02:seed=7 latency   # lossy wire, exact results
//	mpirun -np 4 rma                             # one-sided Put/Accumulate/CAS + PutAsync demo
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/modules/comm"
	"repro/internal/mpi"
	"repro/internal/prof"
	"repro/internal/telemetry"
)

type program struct {
	name, desc string
	np         int // default rank count
	run        func(c *mpi.Comm) error
}

func programs() []program {
	return []program{
		{"hello", "every rank reports in", 4, hello},
		{"latency", "osu_latency-style ping-pong latency sweep (ranks 0 and 1)", 2, latency},
		{"bandwidth", "osu_bw-style bandwidth sweep (ranks 0 and 1)", 2, bandwidth},
		{"allreduce", "allreduce latency: tree vs ring algorithm", 8, allreduceBench},
		{"pi", "Monte Carlo estimation of pi with a final reduction", 8, piEstimate},
		{"barrier", "barrier latency", 8, barrierBench},
		{"resilient", "iterative allreduce that survives injected rank failures (shrink + retry)", 4, resilient},
		{"rma", "one-sided demo: Put/Accumulate/CAS into rank 0's window, a PutAsync epoch, and the batch-coalescing counters", 4, rmaDemo},
	}
}

// options collects every mpirun flag; newFlagSet defines them on a
// fresh FlagSet so the golden help test captures exactly the surface
// main parses.
type options struct {
	np          int
	transport   string
	procs       bool
	profile     bool
	traceOut    string
	inject      string
	heartbeat   time.Duration
	opTimeout   time.Duration
	reliable    bool
	metricsAddr string
}

func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("mpirun", flag.ContinueOnError)
	fs.IntVar(&o.np, "np", 0, "rank count (0 = program default)")
	fs.StringVar(&o.transport, "transport", "channel", "transport: channel or tcp")
	fs.BoolVar(&o.procs, "procs", false, "run each rank in its own OS process (true mpirun semantics)")
	fs.BoolVar(&o.profile, "profile", false, "attach the PMPI-style profiler and print the wait-state profile")
	fs.StringVar(&o.traceOut, "trace-out", "", "write a Chrome/Perfetto trace with message-flow arrows to FILE")
	fs.StringVar(&o.inject, "inject", "", "deterministic fault plan, e.g. rank=2:call=50:kill or frame=drop:prob=0.01:seed=7")
	fs.DurationVar(&o.heartbeat, "heartbeat", 0, "failure-detection heartbeat interval (0 = off, but the default on the tcp transport when -inject is set)")
	fs.DurationVar(&o.opTimeout, "op-timeout", 0, "per-operation timeout: blocked primitives fail with a timeout instead of hanging (0 = off)")
	fs.BoolVar(&o.reliable, "reliable", false, "reliable links on either transport: per-link sequencing, acks, retransmission and CRC32C checksums (survives -inject frame drop/dup/corrupt/reorder)")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve per-rank /metrics + /debug/pprof/ endpoints at HOST:PORT (port 0 = ephemeral per rank, fixed port P = P+rank) and print the cross-rank merged snapshot at exit")
	return fs
}

// programList renders the no-argument program listing (also golden-tested).
func programList() string {
	var b strings.Builder
	b.WriteString("programs:\n")
	for _, p := range programs() {
		fmt.Fprintf(&b, "  %-10s (np=%d)  %s\n", p.name, p.np, p.desc)
	}
	return b.String()
}

func main() {
	var o options
	fs := newFlagSet(&o)
	fs.SetOutput(os.Stderr)
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2) // the flag package already reported the problem
	}
	np, transport, procs := &o.np, &o.transport, &o.procs
	profile, traceOut := &o.profile, &o.traceOut

	name := fs.Arg(0)
	if name == "" {
		fmt.Print(programList())
		os.Exit(2)
	}
	var prog *program
	for _, p := range programs() {
		if p.name == name {
			prog = &p
			break
		}
	}
	if prog == nil {
		fmt.Fprintf(os.Stderr, "mpirun: unknown program %q\n", name)
		os.Exit(1)
	}
	ranks := prog.np
	if *np > 0 {
		ranks = *np
	}
	var collector *prof.Collector
	if *profile || *traceOut != "" {
		if *procs {
			fmt.Fprintln(os.Stderr, "mpirun: -profile/-trace-out are unavailable with -procs (no shared event stream across OS processes)")
			os.Exit(1)
		}
		collector = prof.New()
	}
	var set *telemetry.MPISet
	if o.metricsAddr != "" {
		if *procs {
			fmt.Fprintln(os.Stderr, "mpirun: -metrics-addr is unavailable with -procs (per-rank registries live in the launching process)")
			os.Exit(1)
		}
		set = telemetry.NewMPISet(ranks)
		servers, err := telemetry.ServeRanks(o.metricsAddr, set)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mpirun:", err)
			os.Exit(1)
		}
		defer telemetry.CloseAll(servers)
		fmt.Fprint(os.Stderr, telemetry.ListenMap(servers))
	}
	if o.inject != "" && *procs {
		fmt.Fprintln(os.Stderr, "mpirun: -inject is unavailable with -procs (the plan lives in the launching process)")
		os.Exit(1)
	}
	plan, opts, err := faults.Options(o.inject, o.heartbeat, o.opTimeout, o.reliable)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpirun:", err)
		os.Exit(1)
	}
	if *procs {
		ps := make(mpi.Programs)
		for _, p := range programs() {
			ps[p.name] = p.run
		}
		_, err = runProcs(ranks, name, ps, opts)
		if mpi.InWorker() {
			if err != nil {
				fmt.Fprintln(os.Stderr, "mpirun worker:", err)
				os.Exit(1)
			}
			return
		}
	} else {
		var hooks []mpi.Hook
		if collector != nil {
			hooks = append(hooks, collector)
		}
		if set != nil {
			hooks = append(hooks, set)
		}
		if hook := mpi.MultiHook(hooks...); hook != nil {
			opts = append(opts, mpi.WithHook(hook))
		}
		switch *transport {
		case "channel":
			err = mpi.Run(ranks, prog.run, opts...)
		case "tcp":
			err = mpi.RunTCP(ranks, prog.run, opts...)
		default:
			err = fmt.Errorf("unknown transport %q", *transport)
		}
	}
	if err != nil {
		if plan.Fired(err) {
			// The victim's own error is the expected outcome of a kill
			// plan; survivors recovered (or the run would have failed
			// with a different error).
			fmt.Fprintf(os.Stderr, "mpirun: fault plan %q fired: %v\n", plan, err)
		} else {
			fmt.Fprintln(os.Stderr, "mpirun:", err)
			os.Exit(1)
		}
	}
	if set != nil {
		merged := set.Merge()
		fmt.Println()
		fmt.Println("cross-rank telemetry (merged in process at exit):")
		fmt.Print(merged.Table(12))
		fmt.Print(merged.StragglerReport())
	}
	if collector != nil {
		if *profile {
			fmt.Println()
			fmt.Print(prof.Report(collector.Events()))
		}
		if *traceOut != "" {
			if err := writeTrace(collector, *traceOut, name); err != nil {
				fmt.Fprintln(os.Stderr, "mpirun:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s (open in https://ui.perfetto.dev)\n", *traceOut)
		}
	}
}

// runProcs launches program name of ps on ranks OS processes (-procs)
// and forwards the runtime options to every worker's world.
func runProcs(ranks int, name string, ps mpi.Programs, opts []mpi.Option, extra ...mpi.ProcOption) (worker bool, err error) {
	return mpi.RunProcesses(ranks, name, ps, append([]mpi.ProcOption{mpi.WithRunOptions(opts...)}, extra...)...)
}

func writeTrace(collector *prof.Collector, path, name string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := collector.WriteChromeTrace(f, 1, name); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func hello(c *mpi.Comm) error {
	msg := fmt.Sprintf("hello from rank %d of %d", c.Rank(), c.Size())
	gathered, err := mpi.Gatherv(c, []byte(msg), 0)
	if err != nil {
		return err
	}
	if c.Rank() == 0 {
		lines := make([]string, 0, len(gathered))
		for _, b := range gathered {
			lines = append(lines, string(b))
		}
		sort.Strings(lines)
		for _, l := range lines {
			fmt.Println(l)
		}
	}
	return nil
}

// latency sweeps Module 1's ping-pong over message sizes 1 B to 1 MiB
// and prints the one-way latency, half the mean round trip.
func latency(c *mpi.Comm) error {
	if c.Size() < 2 {
		return fmt.Errorf("latency needs 2 ranks")
	}
	if c.Rank() == 0 {
		fmt.Printf("%10s %14s\n", "bytes", "latency")
	}
	for size := 1; size <= 1<<20; size <<= 2 {
		iters := 1000
		if size >= 1<<16 {
			iters = 100
		}
		res, err := comm.PingPong(c, iters, size)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			fmt.Printf("%10d %14v\n", size, res.AvgRTT/2)
		}
	}
	return nil
}

func bandwidth(c *mpi.Comm) error {
	if c.Size() < 2 {
		return fmt.Errorf("bandwidth needs 2 ranks")
	}
	if c.Rank() == 0 {
		fmt.Printf("%10s %14s\n", "bytes", "MB/s")
	}
	const window = 16
	for size := 1 << 10; size <= 1<<22; size <<= 2 {
		iters := 50
		buf := make([]byte, size)
		if err := c.Barrier(); err != nil {
			return err
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			if c.Rank() == 0 {
				reqs := make([]*mpi.Request, 0, window)
				for w := 0; w < window; w++ {
					req, err := mpi.Isend(c, buf, 1, 0)
					if err != nil {
						return err
					}
					reqs = append(reqs, req)
				}
				if err := mpi.Waitall(reqs...); err != nil {
					return err
				}
				if _, _, err := c.RecvBytes(1, 1); err != nil { // window ack
					return err
				}
			} else if c.Rank() == 1 {
				for w := 0; w < window; w++ {
					if _, _, err := c.RecvBytes(0, 0); err != nil {
						return err
					}
				}
				if err := mpi.Send[byte](c, nil, 0, 1); err != nil {
					return err
				}
			}
		}
		if c.Rank() == 0 {
			elapsed := time.Since(start).Seconds()
			mb := float64(size) * window * float64(iters) / 1e6
			fmt.Printf("%10d %14.1f\n", size, mb/elapsed)
		}
	}
	return nil
}

func allreduceBench(c *mpi.Comm) error {
	if c.Rank() == 0 {
		fmt.Printf("%10s %14s %14s\n", "elems", "tree", "ring")
	}
	for _, n := range []int{16, 256, 4096, 65536} {
		buf := make([]float64, n)
		const iters = 200
		if err := c.Barrier(); err != nil {
			return err
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := mpi.Allreduce(c, buf, mpi.OpSum); err != nil {
				return err
			}
		}
		tree := time.Since(start) / iters
		if err := c.Barrier(); err != nil {
			return err
		}
		start = time.Now()
		for i := 0; i < iters; i++ {
			if _, err := mpi.AllreduceRing(c, buf, mpi.OpSum); err != nil {
				return err
			}
		}
		ring := time.Since(start) / iters
		if c.Rank() == 0 {
			fmt.Printf("%10d %14v %14v\n", n, tree, ring)
		}
	}
	return nil
}

func piEstimate(c *mpi.Comm) error {
	const perRank = 2_000_000
	rng := rand.New(rand.NewSource(int64(c.Rank()) + 1))
	in := 0
	for i := 0; i < perRank; i++ {
		x, y := rng.Float64(), rng.Float64()
		if x*x+y*y <= 1 {
			in++
		}
	}
	total, err := mpi.Reduce(c, []int64{int64(in)}, mpi.OpSum, 0)
	if err != nil {
		return err
	}
	if c.Rank() == 0 {
		pi := 4 * float64(total[0]) / float64(perRank*c.Size())
		fmt.Printf("pi ≈ %.6f (%d samples on %d ranks)\n", pi, perRank*c.Size(), c.Size())
	}
	return nil
}

// resilient runs an iterative allreduce and demonstrates ULFM-style
// recovery: when a rank dies (inject one with -inject rank=R:call=N:kill)
// the survivors observe RankFailedError, agree the iteration failed,
// shrink the communicator, and retry on the smaller world. The agreement
// is what keeps them in step: a collective may report a failure on some
// ranks and complete on others, so every iteration ends with Agree, and
// unless every rank completed it they all redo it. (Shrink agrees on the
// failed set first, so a second kill that lands meanwhile is removed in
// the same step.)
func resilient(c *mpi.Comm) error {
	const iters = 64
	var sum float64
	for it := 0; it < iters; {
		out, err := mpi.Allreduce(c, []float64{1}, mpi.OpSum)
		if errors.Is(err, mpi.ErrRankKilled) {
			return err // this rank is the victim; it is out of the computation
		}
		if err != nil && !errors.Is(err, mpi.ErrRankFailed) {
			return err
		}
		done, err := c.Agree(err == nil)
		if err != nil {
			return fmt.Errorf("agree at iteration %d: %w", it, err)
		}
		if done {
			sum = out[0]
			it++
			continue
		}
		if c.Rank() == 0 {
			fmt.Printf("iteration %d: ranks %v failed — shrinking and retrying\n", it, c.FailedRanks())
		}
		if c, err = c.Shrink(); err != nil {
			return fmt.Errorf("shrink at iteration %d: %w", it, err)
		}
	}
	if c.Rank() == 0 {
		fmt.Printf("completed %d iterations; final world size %d, last sum %.0f\n", iters, c.Size(), sum)
	}
	return nil
}

func barrierBench(c *mpi.Comm) error {
	const iters = 2000
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := c.Barrier(); err != nil {
			return err
		}
	}
	if c.Rank() == 0 {
		fmt.Printf("barrier latency: %v over %d ranks\n", time.Since(start)/iters, c.Size())
	}
	return nil
}
