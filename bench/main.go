// Command bench is the repo's benchmark: seven whole activities driven
// exactly as modulerun and sbatch drive them, measured end to end with
// tracing off, and attributed to layers in a separate traced run.
//
//	go run ./bench -workload all -seed 1            end-to-end metrics
//	go run ./bench -workload all -seed 1 -trace     per-layer metrics + Chrome traces
//	go run ./bench -aa                              two sets of the same code against the bounds
//
// README.md in this directory defines every metric; BENCHMARK.json at
// the repo root is the machine-readable contract.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"text/tabwriter"
)

// perLayer are the traced run's metrics, by layer (= repo package or
// file). A workload that bypasses a layer reports 0 for it.
var perLayer = []metricDef{
	{name: "mpi.calls_per_op", unit: "count"},
	{name: "mpi.msgs_per_op", unit: "count"},
	{name: "mpi.wire_kb_per_op", unit: "KiB"},
	{name: "mpi.prim_ms_per_op", unit: "ms"},
	{name: "mpi.blocked_ms_per_op", unit: "ms"},
	{name: "mpi.self_ms_per_op", unit: "ms"},
	{name: "mpi.queued_ms_per_op", unit: "ms"},
	{name: "mpi.launch_chan_ms", unit: "ms"},
	{name: "mpi.launch_tcp_ms", unit: "ms"},
	{name: "envelope.marshal_ns_per_kb", unit: "ns/KiB"},
	{name: "envelope.unmarshal_ns_per_kb", unit: "ns/KiB"},
	{name: "pool.hit_ratio", unit: "ratio", higher: true},
	{name: "pool.inflight_bytes_end", unit: "B"},
	{name: "transport.chan_rtt_us_8b", unit: "us"},
	{name: "transport.chan_rtt_us_64k", unit: "us"},
	{name: "transport.tcp_rtt_us_8b", unit: "us"},
	{name: "transport.tcp_rtt_us_64k", unit: "us"},
	{name: "collectives.ms_per_op", unit: "ms"},
	{name: "collectives.blocked_ms_per_op", unit: "ms"},
	{name: "collectives.allreduce_us_64", unit: "us"},
	{name: "collectives.allreduce_us_32k", unit: "us"},
	{name: "collectives.alltoallv_ms_2mb", unit: "ms"},
	{name: "icoll.initiated_per_op", unit: "count"},
	{name: "icoll.wait_ms_per_op", unit: "ms"},
	{name: "icoll.iallreduce_us_16k", unit: "us"},
	{name: "rma.ms_per_op", unit: "ms"},
	{name: "rma.batch_ops_per_flush", unit: "ratio", higher: true},
	{name: "rma.put_flush_ns_8b", unit: "ns"},
	{name: "hook.events_per_op", unit: "count"},
	{name: "hook.overhead_pct", unit: "%"},
	{name: "kmeans.compute_ms_per_op", unit: "ms"},
	{name: "kmeans.comm_ms_per_op", unit: "ms"},
	{name: "distsort.exchange_ms_per_op", unit: "ms"},
	{name: "distsort.sort_ms_per_op", unit: "ms"},
	{name: "distsort.imbalance", unit: "ratio"},
	{name: "hashjoin.partition_ms_per_op", unit: "ms"},
	{name: "hashjoin.build_ms_per_op", unit: "ms"},
	{name: "hashjoin.probe_ms_per_op", unit: "ms"},
	{name: "hashjoin.imbalance", unit: "ratio"},
	{name: "ddp.step_ms", unit: "ms"},
	{name: "ddp.buckets", unit: "count"},
	{name: "workload.next_ns_per_job", unit: "ns"},
	{name: "cluster.submit_ns_per_job", unit: "ns"},
	{name: "cluster.rununtil_ns_per_job", unit: "ns"},
	{name: "cluster.drain_ms_per_op", unit: "ms"},
	{name: "cluster.events_per_op", unit: "count"},
	{name: "cluster.stale_ratio", unit: "ratio"},
	{name: "cluster.peak_live", unit: "count"},
	{name: "cluster.allocs_per_job", unit: "count"},
	{name: "cluster.wait_over_runtime", unit: "ratio"},
	{name: "data.gen_s", unit: "s"},
	{name: "bench.op_ms_p90", unit: "ms"},
	{name: "bench.op_ms_max", unit: "ms"},
	{name: "bench.peak_rss_mb", unit: "MB"},
	{name: "bench.residual_ms_per_op", unit: "ms"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// outcome is what one workload's run reports: the last line of its
// standard output, as the benchmark contract words it.
type outcome struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is main with its environment passed in, so the tests can call it.
// Exit codes: 0 every op of every workload passed; 1 something failed
// (an op, a guard, an A/A bound); 2 usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "all", "workload to run, or all")
		seed     = fs.Int64("seed", 1, "seed the inputs are generated from")
		seconds  = fs.Float64("seconds", 10, "how long to measure each workload")
		ops      = fs.Int("ops", 0, "measure exactly this many ops instead of -seconds")
		trace    = fs.Bool("trace", false, "traced run: per-layer metrics and a Chrome trace per workload")
		jsonPath = fs.String("json", "", "also write the results to this file, keys sorted")
		aa       = fs.Bool("aa", false, "run two sets back to back and compare them against the bounds in -spec")
		specPath = fs.String("spec", "BENCHMARK.json", "benchmark contract the -aa bounds are read from")
		outDir   = fs.String("out", "bench/out", "directory for the Chrome traces")
	)
	if err := fs.Parse(splitBool(args, "trace")); err != nil {
		return 2
	}
	var names []string
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(stderr, "bench: unknown workload %q; valid: all, %s\n", *name, strings.Join(names, ", "))
		return 2
	}

	procs := min(runtime.NumCPU(), np)
	runtime.GOMAXPROCS(procs)
	env := map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"GOMAXPROCS": fmt.Sprint(procs),
		"go":         runtime.Version(),
		"commit":     commit(),
		"seed":       fmt.Sprint(*seed),
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	outcomes := make(map[string]outcome)
	if len(names) == 1 && !*aa {
		fmt.Fprintf(stdout, "# bench nproc=%s GOMAXPROCS=%s go=%s commit=%s seed=%s\n",
			env["nproc"], env["GOMAXPROCS"], env["go"], env["commit"], env["seed"])
		cfg := runCfg{seed: *seed, seconds: *seconds, ops: *ops, setups: 5, warmUps: 5, outDir: *outDir}
		results, err := runSet([]*workloadDef{findWorkload(names[0])}, cfg, *trace, 2000, env, stdout)
		if err != nil {
			return fail(err)
		}
		outcomes[names[0]] = results[0].outcome(*trace)
	} else {
		// Several workloads: each in a process of its own, as the
		// benchmark driver runs them, so that none measures the heap,
		// the pools or the page cache an earlier one left behind.
		exe, err := os.Executable()
		if err != nil {
			return fail(err)
		}
		traceArg := "-trace=" + fmt.Sprint(*trace && !*aa) // A/A compares end-to-end metrics
		child := func(w string) (outcome, error) {
			return runChild(exe, stdout, stderr, "-workload", w, "-seed", fmt.Sprint(*seed), "-seconds", fmt.Sprint(*seconds),
				"-ops", fmt.Sprint(*ops), traceArg, "-out", *outDir)
		}
		if *aa {
			return runAA(names, child, *specPath, stdout, stderr)
		}
		for _, w := range names {
			if outcomes[w], err = child(w); err != nil {
				return fail(err)
			}
		}
	}

	// The contract's last line. With several workloads the metric names
	// carry the workload as a prefix.
	line := outcome{Correct: true, Metrics: make(map[string]jsonMetric)}
	for w, o := range outcomes {
		line.Correct = line.Correct && o.Correct
		line.Attempted += o.Attempted
		line.Failed += o.Failed
		for k, m := range o.Metrics {
			if len(outcomes) > 1 {
				k = w + "/" + k
			}
			line.Metrics[k] = m
		}
	}
	if *jsonPath != "" {
		// Maps marshal with sorted keys, so two runs diff cleanly.
		doc := map[string]any{"env": env, "traced": *trace, "workloads": outcomes}
		out, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(out, '\n'), 0o644)
		}
		if err != nil {
			return fail(err)
		}
	}
	out, _ := json.Marshal(line) // numbers and strings cannot fail to marshal
	fmt.Fprintf(stdout, "\n%s\n", out)
	if !line.Correct {
		return 1
	}
	return 0
}

// runChild runs one workload in a fresh process, passes its report on
// and returns its last line. A child that ran but had failing ops exits
// 1 and still reports; one that did not report is an error.
func runChild(exe string, stdout, stderr io.Writer, args ...string) (outcome, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	raw, runErr := cmd.Output()
	report := strings.TrimRight(string(raw), "\n")
	cut := strings.LastIndexByte(report, '\n') + 1
	fmt.Fprintln(stdout, report[:cut])
	var o outcome
	if err := json.Unmarshal([]byte(report[cut:]), &o); err != nil || o.Attempted == 0 {
		return o, fmt.Errorf("%s %s: no result (%v)", exe, strings.Join(args, " "), runErr)
	}
	return o, nil
}

// splitBool lets a boolean flag take its value as a separate argument
// ("--trace 1", as the benchmark driver passes it) as well as bare.
func splitBool(args []string, name string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		if a := strings.TrimLeft(args[i], "-"); a == name && args[i] != name && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				out = append(out, "-"+name+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, args[i])
	}
	return out
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value[:min(len(s.Value), 12)]
			}
		}
	}
	return "unknown"
}

// runSet runs each workload once in this process, traced or untraced,
// printing its metrics as it goes.
func runSet(selected []*workloadDef, cfg runCfg, trace bool, probeRounds int, env map[string]string, stdout io.Writer) ([]*result, error) {
	var probed map[string]float64
	if trace {
		var err error
		if probed, err = probes(probeRounds); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
	}
	var results []*result
	for _, w := range selected {
		var res *result
		var err error
		if trace {
			res, err = traced(w, cfg, probed, env)
		} else {
			res, err = measure(w, cfg)
		}
		if err != nil {
			return nil, err
		}
		results = append(results, res)
		printResult(stdout, res, trace)
	}
	return results, nil
}

func defsFor(trace bool) (mode string, defs []metricDef) {
	if trace {
		return "traced", perLayer
	}
	return "untraced", endToEnd
}

// outcome reports every metric of the run's kind, 0 where the workload
// bypasses the layer.
func (r *result) outcome(trace bool) outcome {
	o := outcome{r.failed == 0, r.attempted, r.failed, make(map[string]jsonMetric)}
	_, defs := defsFor(trace)
	for _, d := range defs {
		o.Metrics[d.name] = jsonMetric{r.metrics[d.name], d.unit}
	}
	return o
}

func printResult(w io.Writer, res *result, trace bool) {
	mode, defs := defsFor(trace)
	fmt.Fprintf(w, "\n== %s (%s): %d measured ops of %d %s, %d attempted, %d failed\n",
		res.workload.name, mode, res.ops, res.workload.items, res.workload.item, res.attempted, res.failed)
	if res.firstErr != "" {
		fmt.Fprintf(w, "first failure: %s\n", res.firstErr)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, d := range defs {
		if v, ok := res.metrics[d.name]; ok {
			fmt.Fprintf(tw, "%s\t%s\t%s\n", d.name, fmtValue(v), d.unit)
		}
	}
	fmt.Fprintf(tw, "fail_ratio\t%s\tratio\n", fmtValue(res.failRatio()))
	tw.Flush()
	if trace {
		fmt.Fprintf(w, "reconciliation (mean traced op, ms; the rows add up to the op):\n")
		tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		for _, row := range res.recon {
			fmt.Fprintf(tw, "  %s\t%.3f\t%5.1f%%\n", row.label, row.ms, 100*row.ms/res.opMs)
		}
		fmt.Fprintf(tw, "  = op\t%.3f\t\n", res.opMs)
		tw.Flush()
		fmt.Fprintf(w, "trace: %s\n", res.traceFile)
	}
}

func fmtValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.6g", v)
}

// runAA measures the same binary twice and holds the difference of
// every end-to-end metric on every workload against that metric's
// bound: what the benchmark cannot tell apart from noise, it cannot
// gate.
func runAA(names []string, child func(string) (outcome, error), specPath string, stdout, stderr io.Writer) int {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", specPath, err)
		return 2
	}
	var sets [2]map[string]outcome
	for i := range sets {
		fmt.Fprintf(stdout, "\n#### A/A set %d\n", i+1)
		sets[i] = make(map[string]outcome)
		for _, w := range names {
			if sets[i][w], err = child(w); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
	}
	fmt.Fprintf(stdout, "\n#### A/A: set 2 against set 1\n")
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tset 1\tset 2\tdiff\tbound\t\n")
	code := 0
	for _, w := range names {
		a, b := sets[0][w], sets[1][w]
		if a.Failed+b.Failed > 0 {
			code = 1
			fmt.Fprintf(tw, "%s\tfailed ops\t%d\t%d\t\t0\tBREACH\n", w, a.Failed, b.Failed)
		}
		for _, e := range spec.EndToEnd {
			va, vb := a.Metrics[e.Name].Value, b.Metrics[e.Name].Value
			verdict := ""
			if !(math.Abs(vb-va)/va <= e.Bound) {
				verdict, code = "BREACH", 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.2f%%\t%.0f%%\t%s\n", w, e.Name,
				fmtValue(va), fmtValue(vb), 100*(vb-va)/va, 100*e.Bound, verdict)
		}
	}
	tw.Flush()
	if code != 0 {
		fmt.Fprintln(stdout, "A/A: FAIL (a difference between two runs of the same code exceeds its bound)")
	} else {
		fmt.Fprintln(stdout, "A/A: ok")
	}
	return code
}
