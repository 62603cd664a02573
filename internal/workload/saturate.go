package workload

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/perfmodel"
)

// RunResult summarizes one pumped workload.
type RunResult struct {
	Stats cluster.WorkloadStats
	// PeakLive is the most job records the cluster held at once while
	// streaming (Cluster.LiveJobs); with retention off it is the largest
	// in-flight set, which bounds the simulator's memory independent of
	// how many jobs flowed through.
	PeakLive int
	// Events and Stale are the heap's dispatch/discard counters.
	Events, Stale int
}

// Run streams njobs arrivals from g into c — advance virtual time to
// each arrival, submit, repeat — then drains the cluster and returns
// the workload statistics. The cluster's policy, retention, and fault
// schedule are the caller's to configure before pumping.
func Run(c *cluster.Cluster, g *Generator, njobs int) (RunResult, error) {
	var res RunResult
	for i := 0; i < njobs; i++ {
		a := g.Next()
		c.RunUntil(a.At)
		if _, err := c.Submit(a.Spec); err != nil {
			return res, fmt.Errorf("workload: job %d: %w", g.Count(), err)
		}
		if live := c.LiveJobs(); live > res.PeakLive {
			res.PeakLive = live
		}
	}
	c.Drain()
	if live := c.LiveJobs(); live > res.PeakLive {
		res.PeakLive = live
	}
	res.Stats = c.Stats()
	res.Events, res.Stale = c.EventProbe()
	return res, nil
}

// SaturationConfig describes one saturation experiment: a workload
// shape, a cluster, a scheduling policy, and optionally a fault plan.
type SaturationConfig struct {
	Spec *Spec
	Seed int64
	// Jobs per evaluated point. More jobs sharpen the knee (queue
	// growth at overload is linear in jobs) but cost linearly.
	Jobs  int
	Nodes int
	// Policy schedules the cluster, a perfmodel.DefaultMachine() per
	// node, with its backfill scan capped at DefaultBackfillLimit.
	Policy cluster.Policy
	// Faults schedules node failures from a fault plan (node=K:at=DUR
	// rules); RepairAfter, when set, returns each failed node to
	// service that long after its failure.
	Faults      []faults.NodeEvent
	RepairAfter time.Duration
	// Lo and Hi bracket the rate-multiplier search (defaults 0.25, 8).
	Lo, Hi float64
	// Tol is the relative bracket width that stops the bisection
	// (default 0.1: the knee is located to within 10%).
	Tol float64
}

// SaturationPoint is one evaluated rate multiplier.
type SaturationPoint struct {
	Mult  float64
	Stats cluster.WorkloadStats
	// Saturated marks a point past the knee: the mean wait exceeds twice
	// the mean runtime, so queueing delay has overtaken service time —
	// the operator's classic overload signal.
	Saturated bool
}

// SaturationResult is the outcome of a knee search.
type SaturationResult struct {
	// Points lists every evaluated multiplier in increasing order.
	Points []SaturationPoint
	// Knee is the geometric midpoint of the final (unsaturated,
	// saturated) bracket: the arrival-rate multiplier where queueing
	// delay takes off.
	Knee float64
	// Bracket is the final (lo, hi) pair around the knee.
	Bracket [2]float64
}

// DefaultBackfillLimit caps the backfill scan depth of every saturation
// run. An uncapped scan over a diverging queue makes overloaded points
// quadratic, which is exactly where the sweep spends its time.
const DefaultBackfillLimit = 64

func (cfg *SaturationConfig) defaults() (SaturationConfig, error) {
	c := *cfg
	if c.Spec == nil {
		c.Spec = MustParse(DefaultSpec)
	}
	if c.Jobs <= 0 {
		c.Jobs = 20000
	}
	if c.Nodes <= 0 {
		c.Nodes = 8
	}
	if cores := perfmodel.DefaultMachine().CoresPerNode; c.Spec.MaxTasks() > c.Nodes*cores {
		return c, fmt.Errorf("workload: widest job (%d tasks) exceeds cluster capacity (%d nodes × %d cores)",
			c.Spec.MaxTasks(), c.Nodes, cores)
	}
	if c.Lo <= 0 {
		c.Lo = 0.25
	}
	if c.Hi <= 0 {
		c.Hi = 8
	}
	if c.Hi <= c.Lo {
		return c, fmt.Errorf("workload: saturation bracket hi (%g) must exceed lo (%g)", c.Hi, c.Lo)
	}
	if c.Tol <= 0 {
		c.Tol = 0.1
	}
	return c, nil
}

// Evaluate runs the workload at one rate multiplier on a fresh cluster.
// It also returns the drained cluster, so a caller can read gauges off
// the run the point reports.
func Evaluate(cfg SaturationConfig, mult float64) (SaturationPoint, *cluster.Cluster, error) {
	c, err := cfg.defaults()
	if err != nil {
		return SaturationPoint{}, nil, err
	}
	return c.evaluate(mult)
}

// evaluate is the one place a saturation run is built and simulated.
func (cfg *SaturationConfig) evaluate(mult float64) (SaturationPoint, *cluster.Cluster, error) {
	c, err := cluster.New(cfg.Nodes, perfmodel.DefaultMachine())
	if err != nil {
		return SaturationPoint{}, nil, err
	}
	c.SetPolicy(cfg.Policy)
	c.SetBackfillLimit(DefaultBackfillLimit)
	c.SetRetainFinished(false)
	for _, ev := range cfg.Faults {
		if err := c.ScheduleNodeFail(ev.Node, ev.At); err != nil {
			return SaturationPoint{}, nil, err
		}
		if cfg.RepairAfter > 0 {
			if err := c.ScheduleNodeRepair(ev.Node, ev.At+cfg.RepairAfter); err != nil {
				return SaturationPoint{}, nil, err
			}
		}
	}
	g := NewGenerator(cfg.Spec, cfg.Seed)
	g.SetRateMultiplier(mult)
	res, err := Run(c, g, cfg.Jobs)
	if err != nil {
		return SaturationPoint{}, nil, err
	}
	st := res.Stats
	return SaturationPoint{Mult: mult, Stats: st, Saturated: st.MeanWait > 2*st.MeanRuntime}, c, nil
}

// FindKnee bisects the arrival-rate multiplier where the workload tips
// from stable (waits bounded by service time) to saturated (queueing
// delay diverging). Every evaluated point is returned, so the caller
// gets a wait-vs-load curve for free. The search is deterministic:
// every point reuses the same generator seed, so two knee searches on
// the same config agree exactly.
func FindKnee(config SaturationConfig) (SaturationResult, error) {
	cfg, err := config.defaults()
	if err != nil {
		return SaturationResult{}, err
	}
	var out SaturationResult
	eval := func(m float64) (SaturationPoint, error) {
		p, _, err := cfg.evaluate(m)
		if err == nil {
			out.Points = append(out.Points, p)
		}
		return p, err
	}

	lo, err := eval(cfg.Lo)
	if err != nil {
		return out, err
	}
	// Expand downward if even the floor is saturated (the workload may
	// nominally sit far past the knee).
	for shrink := 0; lo.Saturated && shrink < 4; shrink++ {
		cfg.Lo /= 4
		if lo, err = eval(cfg.Lo); err != nil {
			return out, err
		}
	}
	if lo.Saturated {
		return out, fmt.Errorf("workload: already saturated at the bracket floor ×%g — lower Lo", cfg.Lo)
	}
	hi, err := eval(cfg.Hi)
	if err != nil {
		return out, err
	}
	// Expand upward if the ceiling is still stable (a wide cluster can
	// swallow the nominal rate with room to spare).
	for grow := 0; !hi.Saturated && grow < 4; grow++ {
		cfg.Hi *= 2
		if hi, err = eval(cfg.Hi); err != nil {
			return out, err
		}
	}
	if !hi.Saturated {
		return out, fmt.Errorf("workload: no saturation up to ×%g — the workload never outruns the cluster", cfg.Hi)
	}

	a, b := lo.Mult, hi.Mult
	for b/a > 1+cfg.Tol {
		mid, err := eval(math.Sqrt(a * b)) // geometric: relative precision
		if err != nil {
			return out, err
		}
		if mid.Saturated {
			b = mid.Mult
		} else {
			a = mid.Mult
		}
	}
	sort.Slice(out.Points, func(i, j int) bool { return out.Points[i].Mult < out.Points[j].Mult })
	out.Knee = math.Sqrt(a * b)
	out.Bracket = [2]float64{a, b}
	return out, nil
}
