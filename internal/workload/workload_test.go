package workload

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/perfmodel"
)

func TestParseFullSpec(t *testing.T) {
	s, err := Parse("diurnal:peak=2000/h,trough=200/h;runtime=pareto:1.5,30s;tasks=zipf:64;timelimit=3x;requeue")
	if err != nil {
		t.Fatal(err)
	}
	if s.Arrival.Kind != ArrivalDiurnal {
		t.Errorf("arrival kind = %v, want diurnal", s.Arrival.Kind)
	}
	if got := s.Arrival.Peak * 3600; got < 1999 || got > 2001 {
		t.Errorf("peak = %v/h, want 2000/h", got)
	}
	if s.Arrival.Period != 24*time.Hour {
		t.Errorf("period = %v, want 24h default", s.Arrival.Period)
	}
	if s.Runtime.Kind != DistPareto || s.Runtime.Alpha != 1.5 || s.Runtime.A != 30 {
		t.Errorf("runtime = %+v, want pareto alpha=1.5 xmin=30s", s.Runtime)
	}
	if s.Tasks.Kind != DistZipf || s.Tasks.A != 64 {
		t.Errorf("tasks = %+v, want zipf max=64", s.Tasks)
	}
	if s.TimeLimitFactor != 3 || !s.Requeue {
		t.Errorf("timelimit factor = %v requeue = %v, want 3 and true", s.TimeLimitFactor, s.Requeue)
	}
	if s.MaxTasks() != 64 {
		t.Errorf("MaxTasks = %d, want 64", s.MaxTasks())
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	bad := []string{
		"",
		"poisson",                            // missing rate
		"poisson:10",                         // rate without unit
		"poisson:-5/s",                       // negative rate
		"poisson:1/fortnight",                // unknown unit
		"uniform:1/s",                        // unknown arrival process
		"diurnal:peak=10/h",                  // missing trough
		"diurnal:peak=1/h,trough=9/h",        // peak below trough
		"bursty:base=10/h",                   // missing burst
		"poisson:1/s;runtime=exp",            // missing mean
		"poisson:1/s;runtime=pareto:0.5,30s", // alpha <= 1: infinite mean
		"poisson:1/s;tasks=zipf:0",           // empty support
		"poisson:1/s;tasks=zipf:8,0.9",       // skew <= 1
		"poisson:1/s;timelimit=0.5x",         // factor < 1
		"poisson:1/s;walltime=3m",            // unknown clause
		"poisson:1/s;runtime",                // clause without value
		// NaN compares false with every bound; let through, it
		"poisson:1/s;tasks=zipf:8,NaN",       // hangs the first Next
		"poisson:1/s;runtime=pareto:NaN,30s", // fails Run: no base time
		"poisson:1/s;timelimit=NaNx",         // sets no time limit
		"poisson:NaN/h",                      // puts every arrival at t = 0
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

// TestGeneratorDeterminism pins the tentpole contract: the same seed
// yields a bit-identical arrival stream, draw for draw.
func TestGeneratorDeterminism(t *testing.T) {
	for _, spec := range []string{
		"poisson:1200/h;runtime=exp:45s;tasks=uniform:1,16",
		"diurnal:peak=2000/h,trough=200/h,period=4h;runtime=pareto:1.5,30s;tasks=zipf:64",
		"bursty:base=200/h,burst=4000/h,on=5m,off=30m;runtime=uniform:10s,90s;tasks=fixed:4",
	} {
		a := NewGenerator(MustParse(spec), 42)
		b := NewGenerator(MustParse(spec), 42)
		other := NewGenerator(MustParse(spec), 43)
		var prev time.Duration
		diverged := false
		for i := 0; i < 5000; i++ {
			x, y, z := a.Next(), b.Next(), other.Next()
			if !reflect.DeepEqual(x, y) {
				t.Fatalf("%s: draw %d diverged under the same seed: %+v vs %+v", spec, i, x, y)
			}
			if x.At < prev {
				t.Fatalf("%s: arrival %d at %v before predecessor %v", spec, i, x.At, prev)
			}
			if x.Spec.BaseTime <= 0 || x.Spec.Tasks < 1 {
				t.Fatalf("%s: draw %d produced degenerate job %+v", spec, i, x.Spec)
			}
			prev = x.At
			if x.At != z.At {
				diverged = true
			}
		}
		if !diverged {
			t.Errorf("%s: seeds 42 and 43 produced identical streams", spec)
		}
	}
}

// TestRunDeterminism replays the same workload twice — once straight
// through Run, once with extra fine-grained RunUntil ticks wedged
// between arrivals — and requires bit-identical WorkloadStats. Virtual
// time must not care how often the clock is advanced.
func TestRunDeterminism(t *testing.T) {
	spec := MustParse("bursty:base=600/h,burst=6000/h,on=2m,off=10m;runtime=exp:45s;tasks=uniform:1,16")
	newCluster := func() *cluster.Cluster {
		c, err := cluster.New(2, perfmodel.DefaultMachine())
		if err != nil {
			t.Fatal(err)
		}
		c.SetRetainFinished(false)
		return c
	}

	const jobs = 2000
	c1 := newCluster()
	r1, err := Run(c1, NewGenerator(spec, 7), jobs)
	if err != nil {
		t.Fatal(err)
	}

	c2 := newCluster()
	r2, err := Run(c2, NewGenerator(spec, 7), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Stats, r2.Stats) {
		t.Errorf("two identical runs disagree:\n%+v\n%+v", r1.Stats, r2.Stats)
	}

	// Third run: same arrivals, but the clock is advanced in 10s ticks
	// between submissions (and before the final drain).
	c3 := newCluster()
	g := NewGenerator(spec, 7)
	for i := 0; i < jobs; i++ {
		a := g.Next()
		for tick := c3.Now() + 10*time.Second; tick < a.At; tick += 10 * time.Second {
			c3.RunUntil(tick)
		}
		c3.RunUntil(a.At)
		if _, err := c3.Submit(a.Spec); err != nil {
			t.Fatal(err)
		}
	}
	horizon := c3.Now() + 24*time.Hour
	for tick := c3.Now(); tick < horizon && c3.LiveJobs() > 0; tick += time.Minute {
		c3.RunUntil(tick)
	}
	c3.Drain()
	if !reflect.DeepEqual(r1.Stats, c3.Stats()) {
		t.Errorf("Drain vs RunUntil stepping disagree:\n%+v\n%+v", r1.Stats, c3.Stats())
	}
}

// TestMemoryBoundedStreaming pins the acceptance criterion: with
// retention off, streaming 100k jobs holds only the in-flight set.
func TestMemoryBoundedStreaming(t *testing.T) {
	if testing.Short() {
		t.Skip("streams 100k jobs")
	}
	spec := MustParse("poisson:600/h;runtime=exp:60s;tasks=fixed:8")
	c, err := cluster.New(4, perfmodel.DefaultMachine())
	if err != nil {
		t.Fatal(err)
	}
	c.SetRetainFinished(false)
	const jobs = 100000
	res, err := Run(c, NewGenerator(spec, 11), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Jobs != jobs || res.Stats.Completed != jobs {
		t.Fatalf("stats = %+v, want %d submitted and completed", res.Stats, jobs)
	}
	// At ~0.6× capacity the in-flight set is tens of jobs; 1% of the
	// stream is already generous. The point is it does not scale with
	// the stream length.
	if res.PeakLive > jobs/100 {
		t.Errorf("peak live jobs = %d; memory is not bounded by in-flight jobs", res.PeakLive)
	}
	if c.LiveJobs() != 0 {
		t.Errorf("%d jobs retained after drain with retention off", c.LiveJobs())
	}
}

// drainCase is one of the two drains bench/ measures (drain-knee and
// drain-stream): its spec, rate multiplier, length and cluster size.
type drainCase struct {
	name  string
	spec  string
	mult  float64
	jobs  int
	nodes int
}

var (
	kneeDrain   = drainCase{"knee", "poisson:1200/h;runtime=pareto:1.5,30s,30m;tasks=zipf:64,1.15;timelimit=4x", 0.13, 20_000, 2}
	streamDrain = drainCase{"stream", "poisson:2500/h;runtime=exp:60s,30m;tasks=fixed:4", 1, 100_000, 8}
)

// run pumps the case through a fresh cluster set up the way bench/ and
// the saturation sweep set theirs up.
func (d drainCase) run(seed int64) (RunResult, error) {
	c, err := cluster.New(d.nodes, perfmodel.DefaultMachine())
	if err != nil {
		return RunResult{}, err
	}
	c.SetBackfillLimit(DefaultBackfillLimit)
	c.SetRetainFinished(false)
	g := NewGenerator(MustParse(d.spec), seed)
	g.SetRateMultiplier(d.mult)
	return Run(c, g, d.jobs)
}

// TestGoldenDrain pins the two bench drains' results at seeds 1-3 to the
// values the scheduler produced before its pass was made allocation-free
// (commit c04676b): every scheduling decision feeds these sums, so a
// change that moves any start by a nanosecond shows here. Stale is the
// one field no decision feeds: it counts heap entries discarded unused,
// and with one entry per running job a drain without faults or kernels
// leaves none.
func TestGoldenDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("streams 360k jobs")
	}
	knee := func(makespan, meanWait, maxWait, meanRun time.Duration, util float64, peak int) RunResult {
		return RunResult{Stats: cluster.WorkloadStats{Jobs: 20000, Completed: 20000,
			Makespan: makespan, MeanWait: meanWait, MaxWait: maxWait, P99Wait: 2097152 * time.Millisecond,
			MeanRuntime: meanRun, Utilization: util}, PeakLive: peak, Events: 20000}
	}
	stream := func(makespan, meanWait, maxWait, meanRun time.Duration, util float64, peak int) RunResult {
		return RunResult{Stats: cluster.WorkloadStats{Jobs: 100000, Completed: 100000,
			Makespan: makespan, MeanWait: meanWait, MaxWait: maxWait,
			MeanRuntime: meanRun, Utilization: util}, PeakLive: peak, Events: 100000}
	}
	for _, tc := range []struct {
		drain drainCase
		want  [3]RunResult // seeds 1, 2, 3
	}{
		{kneeDrain, [3]RunResult{
			knee(461074188069233, 179004502928, 3314893273551, 81781347746, 0.5958203683847202, 73),
			knee(461957048868034, 202648214712, 4117804981061, 81799706267, 0.6040125512664807, 79),
			knee(464550917273736, 187327487322, 3977958458092, 82359514035, 0.603527761991063, 80),
		}},
		{streamDrain, [3]RunResult{
			stream(144208172498905, 1159134, 9139205135, 60008269329, 0.6501914503364747, 70),
			stream(144249804580280, 3193574, 8144882489, 59541899333, 0.6449521230186008, 73),
			stream(144636340437788, 3709968, 8566271326, 60391236119, 0.6524038575030695, 72),
		}},
	} {
		for i, want := range tc.want {
			got, err := tc.drain.run(int64(i + 1))
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s drain, seed %d:\n got %+v\nwant %+v", tc.drain.name, i+1, got, want)
			}
		}
	}
}

// saturationBase is the shared config for the knee tests: heavy-tailed
// runtimes and zipf widths on a small cluster, where backfill visibly
// beats FIFO.
func saturationBase() SaturationConfig {
	return SaturationConfig{
		// Skew 1.15 makes 64-task (full-machine) jobs common: strict
		// FIFO idles the cluster while one drains the queue ahead of
		// it, which is precisely the waste EASY backfill reclaims.
		Spec:  MustParse("poisson:1200/h;runtime=pareto:1.5,30s,30m;tasks=zipf:64,1.15;timelimit=4x"),
		Seed:  5,
		Jobs:  2500,
		Nodes: 2,
		Lo:    0.0625,
		Hi:    8,
		Tol:   0.04,
	}
}

// TestFindKneeSeparatesPolicies pins the acceptance criterion: the
// sweep locates a knee, reproducibly, and the knee differs between
// FIFO and EASY backfill (backfill sustains at least as much load).
func TestFindKneeSeparatesPolicies(t *testing.T) {
	cfg := saturationBase()
	cfg.Policy = cluster.PolicyFIFO
	fifo, err := FindKnee(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Policy = cluster.PolicyBackfill
	backfill, err := FindKnee(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if backfill.Knee <= fifo.Knee {
		t.Errorf("backfill knee ×%.3f not above FIFO knee ×%.3f", backfill.Knee, fifo.Knee)
	}
	t.Logf("knee: fifo ×%.3f, backfill ×%.3f (%d/%d points)",
		fifo.Knee, backfill.Knee, len(fifo.Points), len(backfill.Points))

	// Reproducibility: the whole search — every point, every stat —
	// must replay exactly.
	again, err := FindKnee(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(backfill, again) {
		t.Errorf("two identical knee searches disagree:\n%+v\n%+v", backfill, again)
	}

	// The curve behaves: points are sorted and monotone in saturation
	// (no unsaturated point above a saturated one).
	for _, res := range []SaturationResult{fifo, backfill} {
		firstSat := -1
		for i, p := range res.Points {
			if i > 0 && p.Mult <= res.Points[i-1].Mult {
				t.Errorf("points not strictly sorted at %d", i)
			}
			if p.Saturated && firstSat < 0 {
				firstSat = i
			}
			if firstSat >= 0 && i > firstSat && !p.Saturated {
				t.Errorf("unsaturated point ×%.3f above saturated ×%.3f", p.Mult, res.Points[firstSat].Mult)
			}
		}
		if res.Knee < res.Bracket[0] || res.Knee > res.Bracket[1] {
			t.Errorf("knee ×%.3f outside bracket %v", res.Knee, res.Bracket)
		}
	}
}

// TestFindKneeUnderFaults runs the sweep with a node-failure plan and
// requeue-enabled jobs: the knee must drop relative to the healthy
// cluster (capacity lost to the dead node), and the requeue machinery
// must be exercised.
func TestFindKneeUnderFaults(t *testing.T) {
	cfg := saturationBase()
	cfg.Spec = MustParse("poisson:1200/h;runtime=pareto:1.5,30s,30m;tasks=zipf:64;timelimit=4x;requeue")
	cfg.Policy = cluster.PolicyBackfill

	healthy, err := FindKnee(cfg)
	if err != nil {
		t.Fatal(err)
	}

	plan := faults.MustParse("node=0:at=30m,node=1:at=2h")
	cfg.Faults = plan.NodeEvents()
	cfg.RepairAfter = 45 * time.Minute
	faulty, err := FindKnee(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Knee >= healthy.Knee {
		t.Errorf("knee under faults ×%.3f not below healthy knee ×%.3f", faulty.Knee, healthy.Knee)
	}
	requeued := false
	for _, p := range faulty.Points {
		if p.Stats.Requeues > 0 {
			requeued = true
		}
	}
	if !requeued {
		t.Error("fault plan fired but no job was ever requeued")
	}
}

// TestEvaluateRejectsOversizedJobs: a spec whose widest job cannot fit
// the cluster fails fast instead of wedging the queue forever.
func TestEvaluateRejectsOversizedJobs(t *testing.T) {
	cfg := SaturationConfig{
		Spec:  MustParse("poisson:10/h;tasks=fixed:1000"),
		Nodes: 2,
	}
	if _, _, err := Evaluate(cfg, 1); err == nil {
		t.Error("Evaluate accepted a 1000-task job on a 2-node cluster")
	}
}

// TestP99WaitCappedAtMax: the log₂ bucket holding the 99th-percentile
// wait can end past the longest wait, and P99Wait must not. The run is
// `sbatch -workload "poisson:900/h;tasks=fixed:16" -nodes 2 -njobs 400
// -seed 3 -faults node=0:at=30m -repair 1h`, whose P99 bucket ends at
// 2h19m48.608s against a longest wait of 1h44m13.273s.
func TestP99WaitCappedAtMax(t *testing.T) {
	pt, _, err := Evaluate(SaturationConfig{
		Spec:        MustParse("poisson:900/h;tasks=fixed:16"),
		Seed:        3,
		Jobs:        400,
		Nodes:       2,
		Policy:      cluster.PolicyBackfill,
		Faults:      faults.MustParse("node=0:at=30m").NodeEvents(),
		RepairAfter: time.Hour,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st := pt.Stats; st.P99Wait > st.MaxWait {
		t.Errorf("P99Wait %v exceeds MaxWait %v", st.P99Wait, st.MaxWait)
	}
}
