package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/mpi"
)

// Load shape, the same on every workload: closed loop, one driver
// goroutine, one op at a time; warmUps ops inside setup_s, then timed
// ops for runCfg.seconds (or exactly runCfg.ops).
type runCfg struct {
	seed    int64
	seconds float64 // measure for this long ...
	ops     int     // ... or, when > 0, for exactly this many ops
	setups  int     // set-ups per untraced run; setup_s is their median
	warmUps int
	outDir  string // where the traced run writes its Chrome traces
}

// minOps keeps a run on a slow machine from reporting a median of a
// handful of samples.
const minOps = 10

type metricDef struct {
	name, unit string
	higher     bool // better when higher
}

// endToEnd are the figures a user of the stack sees, measured with
// tracing off. fail_ratio is printed next to them; BENCHMARK.json
// carries it as attempted/failed because a metric there may never be 0.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "op_ms_p50", unit: "ms"},
	{name: "cpu_ms_per_op", unit: "ms"},
	{name: "items_per_s", unit: "items/s", higher: true},
	{name: "allocs_per_op", unit: "count"},
	{name: "alloc_kb_per_op", unit: "KiB"},
	{name: "retained_heap_mb", unit: "MB"},
}

// result is one workload's run: untraced (end-to-end metrics) or traced
// (per-layer metrics).
type result struct {
	workload  *workloadDef
	ops       int // measured ops: timed (untraced run) or traced (traced run)
	attempted int // every op run, warm-ups included
	failed    int
	firstErr  string
	metrics   map[string]float64
	recon     []reconRow // traced runs: layer self-times adding up to opMs
	opMs      float64
	traceFile string
}

// runOp runs one op and keeps the failure count.
func (r *result) runOp(inst *instance, rec *opRec) {
	r.attempted++
	if err := inst.op(rec); err != nil {
		r.fail(1, err)
	}
}

func (r *result) fail(ops int, err error) {
	r.failed += ops
	if r.firstErr == "" {
		r.firstErr = err.Error()
	}
}

func (r *result) failRatio() float64 { return float64(r.failed) / float64(r.attempted) }

// setUp generates the inputs and reference result and runs the warm-up
// ops: everything setup_s covers.
func (r *result) setUp(cfg runCfg) (*instance, time.Duration, error) {
	w := r.workload
	start := time.Now()
	inst, err := w.setup(cfg.seed)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	for i := 0; i < cfg.warmUps; i++ {
		r.runOp(inst, nil)
	}
	return inst, time.Since(start), nil
}

// leakGuard remembers the goroutine count and the pool's checked-out
// bytes before a workload; both must be back when it is over.
type leakGuard struct {
	goroutines int
	inFlight   int64
}

func newLeakGuard() leakGuard {
	return leakGuard{runtime.NumGoroutine(), mpi.PoolStats().BytesInFlight}
}

// check polls, because teardown is asynchronous: socket readers drain
// after their connections close.
func (g leakGuard) check() error {
	var n int
	var b int64
	for wait := time.Millisecond; wait < 2*time.Second; wait *= 2 {
		n, b = runtime.NumGoroutine(), mpi.PoolStats().BytesInFlight
		if n <= g.goroutines && b == g.inFlight {
			return nil
		}
		time.Sleep(wait)
	}
	return fmt.Errorf("leak: %d goroutines (was %d), %d pool bytes in flight (was %d)", n, g.goroutines, b, g.inFlight)
}

// finish applies the checks that judge a workload's run as a whole —
// the leak guard and the instance's regime guard. Either failing fails
// every op.
func (r *result) finish(g leakGuard, inst *instance) {
	err := g.check()
	if inst.regime != nil && err == nil {
		err = inst.regime()
	}
	if err != nil {
		r.fail(r.attempted-r.failed, err)
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timedOps reports whether another op should run.
func (cfg runCfg) more(done int, start time.Time) bool {
	if cfg.ops > 0 {
		return done < cfg.ops
	}
	return done < minOps || time.Since(start).Seconds() < cfg.seconds
}

// quantile is the nearest-rank q-quantile of sorted.
func quantile(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// measure is the untraced run: the end-to-end metrics.
func measure(w *workloadDef, cfg runCfg) (*result, error) {
	res := &result{workload: w, metrics: make(map[string]float64)}
	guard := newLeakGuard()

	var inst *instance
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		var d time.Duration
		var err error
		if inst, d, err = res.setUp(cfg); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}

	durs := make([]float64, 0, 4096)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, start := cpuTime(), time.Now()
	for cfg.more(len(durs), start) {
		t0 := time.Now()
		res.runOp(inst, nil)
		durs = append(durs, ms(time.Since(t0)))
	}
	wall, cpu := time.Since(start), cpuTime()-cpu0
	runtime.ReadMemStats(&after)

	// Teardown first (socket readers exit asynchronously), then two
	// collections: the first frees what finalizers and sync.Pools held.
	res.finish(guard, inst)
	runtime.GC()
	runtime.GC()
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	runtime.KeepAlive(inst) // the inputs are part of what a run retains

	n := float64(len(durs))
	m := res.metrics
	m["setup_s"] = median(setups)
	m["op_ms_p50"] = median(durs)
	m["cpu_ms_per_op"] = ms(cpu) / n
	m["items_per_s"] = float64(w.items) * n / wall.Seconds()
	m["allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / n
	m["alloc_kb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / n
	m["retained_heap_mb"] = float64(end.HeapAlloc) / 1e6
	res.ops = len(durs)
	return res, nil
}

// traced is the per-layer run: one set-up, then untraced and traced ops
// in turn, so that hook.overhead_pct compares like with like.
func traced(w *workloadDef, cfg runCfg, probes map[string]float64, env map[string]string) (*result, error) {
	res := &result{workload: w, metrics: make(map[string]float64)}
	guard := newLeakGuard()

	inst, _, err := res.setUp(cfg)
	if err != nil {
		return nil, err
	}
	t := newTracer()
	var plain, withTrace []float64
	var mallocs uint64
	pool0, icoll0, rma0 := mpi.PoolStats(), mpi.IcollStats(), mpi.RMABatchStats()
	var before, after runtime.MemStats
	start := time.Now()
	for cfg.more(len(withTrace), start) {
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		res.runOp(inst, nil)
		plain = append(plain, ms(time.Since(t0)))
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs

		rec := t.begin()
		res.runOp(inst, rec)
		withTrace = append(withTrace, ms(rec.end()))
	}
	pool, icoll, rma := mpi.PoolStats(), mpi.IcollStats().Sub(icoll0), mpi.RMABatchStats().Sub(rma0)
	res.finish(guard, inst)

	m := res.metrics
	for k, v := range probes {
		m[k] = v
	}
	ops := float64(t.ops)
	allOps := float64(len(plain) + len(withTrace))
	per := func(name string) float64 { return t.sums[name] / ops }

	// Most layer figures are per-op means of what the ops added under
	// the metric's own name; the rest are derived below.
	for _, d := range perLayer {
		if sum, ok := t.sums[d.name]; ok {
			m[d.name] = sum / ops
		}
	}
	sort.Float64s(plain)
	m["bench.op_ms_p90"] = quantile(plain, 0.9)
	m["bench.op_ms_max"] = plain[len(plain)-1]
	m["bench.peak_rss_mb"] = peakRSSMB()
	m["hook.overhead_pct"] = 100 * (median(withTrace) - median(plain)) / median(plain)
	m["data.gen_s"] = inst.gen.Seconds()
	if t.sums["world.ms"] > 0 {
		m["mpi.self_ms_per_op"] = m["mpi.prim_ms_per_op"] - m["mpi.blocked_ms_per_op"]
		m["icoll.initiated_per_op"] = float64(icoll.Started) / allOps
		if rma.Flushes > 0 {
			m["rma.batch_ops_per_flush"] = float64(rma.Ops) / float64(rma.Flushes)
		}
		if gets := (pool.Hits - pool0.Hits) + (pool.Misses - pool0.Misses); gets > 0 {
			m["pool.hit_ratio"] = float64(pool.Hits-pool0.Hits) / float64(gets)
		}
		m["pool.inflight_bytes_end"] = float64(pool.BytesInFlight)
	}
	if events, ok := t.sums["cluster.events_per_op"]; ok {
		jobs := float64(w.items)
		m["workload.next_ns_per_job"] = per("workload.next_ms") * 1e6 / jobs
		m["cluster.submit_ns_per_job"] = per("cluster.submit_ms") * 1e6 / jobs
		m["cluster.rununtil_ns_per_job"] = per("cluster.rununtil_ms") * 1e6 / jobs
		m["cluster.stale_ratio"] = t.sums["cluster.stale"] / (events + t.sums["cluster.stale"])
		m["cluster.allocs_per_job"] = float64(mallocs) / float64(len(plain)) / jobs
	}

	res.recon, res.opMs = t.reconcile()
	m["bench.residual_ms_per_op"] = res.recon[len(res.recon)-1].ms
	res.ops = t.ops
	if res.traceFile, err = t.writeChrome(cfg.outDir, w.name, env); err != nil {
		return nil, err
	}
	return res, nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
