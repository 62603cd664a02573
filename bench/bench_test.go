package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/modules/hashjoin"
)

// testCfg is the smallest run that still goes through every stage.
func testCfg(t *testing.T, ops, warmUps int) runCfg {
	return runCfg{seed: 7, ops: ops, setups: 1, warmUps: warmUps, outDir: t.TempDir()}
}

func all() []*workloadDef {
	var ws []*workloadDef
	for i := range workloads {
		ws = append(ws, &workloads[i])
	}
	return ws
}

func runSetT(t *testing.T, cfg runCfg, trace bool) []*result {
	t.Helper()
	var out bytes.Buffer
	results, err := runSet(all(), cfg, trace, 20, map[string]string{"seed": "7"}, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	for _, res := range results {
		if res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s (trace=%v): %d of %d ops failed: %s", res.workload.name, trace, res.failed, res.attempted, res.firstErr)
		}
	}
	return results
}

// TestUntraced smoke-runs every workload at 3 ops, twice: every
// end-to-end metric is reported and positive, and the allocation count
// of a seed repeats.
func TestUntraced(t *testing.T) {
	if raceEnabled {
		t.Skip("TestTraced runs the same untraced ops under the race detector")
	}
	a, b := runSetT(t, testCfg(t, 3, 1), false), runSetT(t, testCfg(t, 3, 1), false)
	for i, res := range a {
		for _, d := range endToEnd {
			if v, ok := res.metrics[d.name]; !ok || !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", res.workload.name, d.name, v)
			}
		}
		// Over a full run a seed's count repeats to < 0.5%. Over 3 ops,
		// next to other packages' tests, it moves by up to 1.2%: when the
		// collector empties a sync.Pool, and which goroutine advances a
		// nonblocking collective, are up to the scheduler.
		va, vb := res.metrics["allocs_per_op"], b[i].metrics["allocs_per_op"]
		if math.Abs(va-vb) > max(0.03*va, 16) {
			t.Errorf("%s: allocs_per_op %v then %v, want within 3%% (or 16)", res.workload.name, va, vb)
		}
	}
}

// TestTraced smoke-runs every workload traced, twice on one seed: the
// exact-count layer metrics repeat exactly, the reconciliation adds up,
// the controlled pair makes the same calls, and the trace file parses.
func TestTraced(t *testing.T) {
	ops := 2
	if raceEnabled {
		ops = 1
	}
	a := runSetT(t, testCfg(t, ops, 1), true)
	b := a
	if !raceEnabled {
		b = runSetT(t, testCfg(t, ops, 1), true)
	}
	calls := make(map[string]float64)
	for i, res := range a {
		name := res.workload.name
		for _, m := range []string{"mpi.calls_per_op", "mpi.msgs_per_op", "mpi.wire_kb_per_op", "cluster.events_per_op"} {
			if name == "join-rma" && m == "mpi.calls_per_op" {
				// JoinRMA reserves its slots in a CAS loop: how often a
				// rank loses the race and retries is up to the scheduler.
				continue
			}
			if va, vb := res.metrics[m], b[i].metrics[m]; va != vb {
				t.Errorf("%s: %s %v then %v, want identical", name, m, va, vb)
			}
		}
		isMPI := !strings.HasPrefix(name, "drain-")
		if c := res.metrics["mpi.calls_per_op"]; (c > 0) != isMPI {
			t.Errorf("%s: mpi.calls_per_op = %v", name, c)
		}
		if e := res.metrics["cluster.events_per_op"]; (e > 0) == isMPI {
			t.Errorf("%s: cluster.events_per_op = %v", name, e)
		}
		if _, ok := res.metrics["hook.overhead_pct"]; !ok {
			t.Errorf("%s: hook.overhead_pct missing", name)
		}
		if n := res.metrics["pool.inflight_bytes_end"]; n != 0 {
			t.Errorf("%s: %v pool bytes in flight at the end", name, n)
		}
		calls[name] = res.metrics["mpi.calls_per_op"]

		sum := 0.0
		for _, row := range res.recon {
			sum += row.ms
		}
		if math.Abs(sum-res.opMs) > 1e-6*res.opMs {
			t.Errorf("%s: reconciliation rows sum to %v ms, op is %v ms", name, sum, res.opMs)
		}

		raw, err := os.ReadFile(res.traceFile)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string
				Ph   string
				Args map[string]any
			}
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s: %v", res.traceFile, err)
		}
		opSpans := 0
		for _, e := range doc.TraceEvents {
			if e.Ph == "X" && e.Name == "op" {
				opSpans++
			} else if e.Ph == "X" && e.Args["parent"] == nil {
				t.Errorf("%s: span %q has no parent", name, e.Name)
			}
		}
		if opSpans != res.ops {
			t.Errorf("%s: %d op spans in the trace, want %d", name, opSpans, res.ops)
		}
	}
	if calls["kmeans-chan"] != calls["kmeans-tcp"] {
		t.Errorf("controlled pair: kmeans-chan makes %v calls per op, kmeans-tcp %v", calls["kmeans-chan"], calls["kmeans-tcp"])
	}
}

// TestBrokenCheckFailsEveryOp hands the join a wrong reference match
// count: a benchmark whose checks cannot fail checks nothing.
func TestBrokenCheckFailsEveryOp(t *testing.T) {
	var build, probe [np][]hashjoin.Tuple
	var allBuild, allProbe []hashjoin.Tuple
	for i := 0; i < 4000; i++ {
		b := hashjoin.Tuple{Key: int64(i % 500), Payload: int64(i)}
		p := hashjoin.Tuple{Key: int64(i % 700), Payload: int64(i)}
		build[i%np], probe[i%np] = append(build[i%np], b), append(probe[i%np], p)
		allBuild, allProbe = append(allBuild, b), append(allProbe, p)
	}
	want := int64(len(hashjoin.Sequential(allBuild, allProbe)))
	for _, tc := range []struct {
		want  int64
		ratio float64
	}{{want, 0}, {want + 1, 1}} {
		res := &result{}
		inst := &instance{op: joinOp(build, probe, tc.want)}
		for i := 0; i < 3; i++ {
			res.runOp(inst, nil)
		}
		if res.failRatio() != tc.ratio {
			t.Errorf("reference %d (true count %d): fail_ratio %v, want %v (%s)", tc.want, want, res.failRatio(), tc.ratio, res.firstErr)
		}
	}
}

// TestRun drives main's run the way the benchmark driver does.
func TestRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
	for _, w := range workloads {
		if !strings.Contains(stderr.String(), w.name) {
			t.Errorf("unknown-workload message does not list %s: %s", w.name, stderr.String())
		}
	}

	if raceEnabled {
		t.Skip("26 ops")
	}
	stdout.Reset()
	stderr.Reset()
	path := filepath.Join(t.TempDir(), "out.json")
	args := []string{"--workload", "kmeans-chan", "--seed", "3", "--ops", "1", "--trace", "0", "--json", path}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last struct {
		Correct   *bool
		Attempted int
		Failed    int
		Metrics   map[string]jsonMetric
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line: %v\n%s", err, lines[len(lines)-1])
	}
	if last.Correct == nil || !*last.Correct || last.Attempted < 1 || last.Failed != 0 || len(last.Metrics) != len(endToEnd) {
		t.Errorf("last line = %s", lines[len(lines)-1])
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Env       map[string]string
		Workloads map[string]struct{ Metrics map[string]jsonMetric }
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"nproc", "GOMAXPROCS", "go", "commit", "seed"} {
		if doc.Env[k] == "" {
			t.Errorf("-json env lacks %s", k)
		}
	}
	if len(doc.Workloads["kmeans-chan"].Metrics) != len(endToEnd) {
		t.Errorf("-json metrics = %v", doc.Workloads["kmeans-chan"].Metrics)
	}
}

func TestSplitBool(t *testing.T) {
	for in, want := range map[string]string{
		"--trace 1 --seed 2":     "-trace=1 --seed 2",
		"--seed 2 --trace 0":     "--seed 2 -trace=0",
		"-trace -workload all":   "-trace -workload all",
		"-workload trace -trace": "-workload trace -trace",
	} {
		if got := strings.Join(splitBool(strings.Fields(in), "trace"), " "); got != want {
			t.Errorf("splitBool(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCovered(t *testing.T) {
	t0 := time.Now()
	iv := func(start, dur int) interval {
		return interval{t0.Add(time.Duration(start) * time.Millisecond), time.Duration(dur) * time.Millisecond}
	}
	// [0,10) ∪ [5,12) ∪ [6,8) ∪ [20,25) = 12 + 5
	if got := covered([]interval{iv(20, 5), iv(5, 7), iv(0, 10), iv(6, 2)}); got != 17*time.Millisecond {
		t.Errorf("covered = %v, want 17ms", got)
	}
}

// TestSchema holds BENCHMARK.json and the program to each other.
func TestSchema(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) > 8 || len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics: over 8 / 16 / 128",
			len(spec.Workloads), len(spec.EndToEnd), len(spec.PerLayer))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		name(w.Name)
		if i < len(workloads) && (w.Name != workloads[i].name || w.Why != workloads[i].why) {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, defs []metricDef, bounded bool) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, the program emits %d", kind, len(got), len(defs))
		}
		for i, m := range got {
			name(m.Name)
			if i >= len(defs) {
				break
			}
			d := defs[i]
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if m.Name != d.name || m.Unit != d.unit || m.Better != better || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) || (bounded && !(*m.Bound > 0 && *m.Bound <= 0.25)) {
				t.Errorf("%s: bound %v", m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}
