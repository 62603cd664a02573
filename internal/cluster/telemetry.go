package cluster

import (
	"repro/internal/telemetry"
)

// Gauges pushes scheduler state into a telemetry registry. The cluster
// simulator is deliberately single-threaded (event-driven virtual time,
// no locks), so these are explicit-update gauges: call Observe between
// simulation phases rather than letting a scraper pull racy state.
type Gauges struct {
	queueDepth  telemetry.Gauge
	jobsRunning telemetry.Gauge
	completed   telemetry.Gauge
	requeues    telemetry.Gauge
	nodeStates  map[string]telemetry.Gauge
	utilization telemetry.Gauge // fraction × 1e6 (registry values are int64)
	jobsPerSec  telemetry.Gauge // rate × 1e6
	arrivalRate telemetry.Gauge // submissions per simulated second × 1e6
	offeredLoad telemetry.Gauge // offered core-seconds per capacity core-second × 1e6
}

// utilScale fixes the fixed-point factor for fractional gauges.
const utilScale = 1e6

// NewGauges registers the scheduler series on reg.
func NewGauges(reg *telemetry.Registry) *Gauges {
	g := &Gauges{
		queueDepth:  reg.Gauge("cluster_queue_depth", "Pending jobs awaiting placement."),
		jobsRunning: reg.Gauge("cluster_jobs_running", "Jobs currently executing."),
		completed:   reg.Gauge("cluster_jobs_completed_total", "Jobs that ran to completion."),
		requeues:    reg.Gauge("cluster_requeues_total", "Job resubmissions after node failures."),
		nodeStates:  make(map[string]telemetry.Gauge),
		utilization: reg.Gauge("cluster_utilization_ppm", "Allocated core fraction, parts per million."),
		jobsPerSec:  reg.Gauge("cluster_jobs_per_second_ppm", "Completed jobs per simulated second, parts per million."),
		arrivalRate: reg.Gauge("cluster_arrival_rate_per_second_ppm", "Submitted jobs per simulated second, parts per million."),
		offeredLoad: reg.Gauge("cluster_offered_load_ppm", "Offered load: submitted core-seconds over cluster core-second capacity, parts per million (>1e6 means the workload outruns the machine)."),
	}
	for _, st := range []string{"idle", "allocated", "allocated(excl)", "mixed", "down"} {
		g.nodeStates[st] = reg.Gauge("cluster_nodes", "Nodes by scheduler state.", telemetry.L("state", st))
	}
	return g
}

// Observe snapshots c into the gauges. Call it from the goroutine driving
// the simulation. It reads the incremental stats aggregate rather than
// scanning the job records, so it stays O(nodes) at million-job scale.
func (g *Gauges) Observe(c *Cluster) {
	g.queueDepth.Set(int64(len(c.order)))
	g.jobsRunning.Set(int64(len(c.running)))
	g.completed.Set(int64(c.agg.completed))
	g.requeues.Set(int64(c.agg.requeues))

	counts := make(map[string]int64, len(g.nodeStates))
	for _, n := range c.nodes {
		counts[n.state()]++
	}
	for st, gauge := range g.nodeStates {
		gauge.Set(counts[st])
	}

	g.utilization.Set(int64(c.Utilization() * utilScale))
	rate := 0.0
	if mk := c.agg.makespan; mk > 0 {
		rate = float64(c.agg.completed) / mk.Seconds()
	}
	g.jobsPerSec.Set(int64(rate * utilScale))

	if sec := c.now.Seconds(); sec > 0 {
		g.arrivalRate.Set(int64(float64(c.agg.submitted) / sec * utilScale))
		capacity := sec * float64(len(c.nodes)*c.machine.CoresPerNode)
		g.offeredLoad.Set(int64(c.agg.offeredCoreSec / capacity * utilScale))
	} else {
		g.arrivalRate.Set(0)
		g.offeredLoad.Set(0)
	}
}
