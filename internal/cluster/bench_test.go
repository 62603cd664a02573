package cluster

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/perfmodel"
)

// Drain benchmarks for the event core, heap vs the seed's linear scan.
//
// The linear baseline below reproduces the pre-heap engine faithfully:
// every Step scanned EVERY retained job record twice — once to find
// the earliest completion/timeout, once to drain progress in advanceTo —
// so a workload of n jobs cost O(n) per event and O(n²) to drain. The
// heap engine finds the next event in O(log n) and advances the clock in
// O(1), which is what lets a million generated jobs drain in seconds
// (internal/workload's TestMillionJobDrain). Expect the 100k linear
// point to take on the order of a minute — that slowness is the
// measurement.

// benchArrival is one pre-generated submission.
type benchArrival struct {
	at   time.Duration
	spec JobSpec
}

// benchWorkload draws a deterministic sub-saturation Poisson stream:
// 4-task jobs, exponential runtimes (mean 60s, capped 30m), padded time
// limits, on an 8-node machine (~65% offered load).
func benchWorkload(n int) []benchArrival {
	rng := rand.New(rand.NewSource(1))
	const rate = 0.7 // jobs per second
	arrivals := make([]benchArrival, n)
	var t time.Duration
	for i := range arrivals {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		run := time.Duration(rng.ExpFloat64() * float64(60*time.Second))
		if run > 30*time.Minute {
			run = 30 * time.Minute
		}
		if run < time.Millisecond {
			run = time.Millisecond
		}
		arrivals[i] = benchArrival{at: t, spec: JobSpec{
			Tasks:     4,
			BaseTime:  run,
			TimeLimit: 4 * run,
		}}
	}
	return arrivals
}

func benchCluster(b *testing.B, retain bool) *Cluster {
	c, err := New(8, perfmodel.DefaultMachine())
	if err != nil {
		b.Fatal(err)
	}
	c.SetRetainFinished(retain)
	return c
}

// BenchmarkClusterDrain pumps pre-generated arrivals through the heap
// engine and drains. The 10k/100k sizes retain finished jobs (matching
// the linear baseline's configuration); the 1M size streams with
// eviction, the tentpole configuration.
func BenchmarkClusterDrain(b *testing.B) {
	for _, tc := range []struct {
		name   string
		jobs   int
		retain bool
	}{
		{"jobs=10k", 10_000, true},
		{"jobs=100k", 100_000, true},
		{"jobs=1M", 1_000_000, false},
	} {
		arrivals := benchWorkload(tc.jobs)
		b.Run(tc.name, func(b *testing.B) {
			totalEvents := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := benchCluster(b, tc.retain)
				for _, a := range arrivals {
					c.RunUntil(a.at)
					if _, err := c.Submit(a.spec); err != nil {
						b.Fatal(err)
					}
				}
				c.Drain()
				ev, _ := c.EventProbe()
				totalEvents += ev
			}
			b.ReportMetric(float64(totalEvents)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// BenchmarkPlaceWide submits a job that starts at once and cancels it, on
// a 256-node cluster, for jobs spanning 1, 16 and all 256 nodes. On idle
// nodes the job's width is known from its size; on fragmented ones (28
// of 32 cores taken everywhere) the first node picked shows that the job
// needs one node per 4 tasks. Either way place must sort as soon as
// picking nodes one at a time would cost more than the sort.
func BenchmarkPlaceWide(b *testing.B) {
	const nodes = 256
	cores := perfmodel.DefaultMachine().CoresPerNode
	for _, tc := range []struct {
		name string
		free int // cores free on every node
	}{{"idle", cores}, {"fragmented", 4}} {
		for _, span := range []int{1, 16, nodes} {
			b.Run(fmt.Sprintf("%s/span=%d", tc.name, span), func(b *testing.B) {
				c, err := New(nodes, perfmodel.DefaultMachine())
				if err != nil {
					b.Fatal(err)
				}
				c.SetRetainFinished(false)
				for i := 0; i < nodes*(cores-tc.free); i++ {
					if _, err := c.Submit(JobSpec{Tasks: 1, BaseTime: time.Hour}); err != nil {
						b.Fatal(err)
					}
				}
				spec := JobSpec{Tasks: span * tc.free, BaseTime: time.Hour}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					id, err := c.Submit(spec)
					if err != nil {
						b.Fatal(err)
					}
					if err := c.Cancel(id); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkClusterDrainLinear is the same pump through the seed's
// linear-scan engine. One point only: at O(n²) a 100k drain takes nine
// minutes (the figure is kept in EXPERIMENTS.md) and 1M would run for
// hours.
func BenchmarkClusterDrainLinear(b *testing.B) {
	for _, tc := range []struct {
		name string
		jobs int
	}{
		{"jobs=10k", 10_000},
	} {
		arrivals := benchWorkload(tc.jobs)
		b.Run(tc.name, func(b *testing.B) {
			totalEvents := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := benchCluster(b, true)
				for _, a := range arrivals {
					totalEvents += linearRunUntil(c, a.at)
					if _, err := c.Submit(a.spec); err != nil {
						b.Fatal(err)
					}
				}
				for linearStep(c) {
					totalEvents++
				}
			}
			b.ReportMetric(float64(totalEvents)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// linearNextJobEvent is the seed's scan: iterate every retained job to
// find the earliest completion or walltime kill.
func linearNextJobEvent(c *Cluster) (time.Duration, *Job, bool) {
	nextAt := maxDuration
	var victim *Job
	var timeout bool
	for _, j := range c.records {
		if j.State != Running {
			continue
		}
		if j.rate > 0 {
			eta := j.settledAt + durationFromSeconds(j.remaining/j.rate)
			if eta < c.now {
				eta = c.now
			}
			if eta < nextAt {
				nextAt, victim, timeout = eta, j, false
			}
		}
		if j.Spec.TimeLimit > 0 {
			kill := j.StartTime + j.Spec.TimeLimit
			if kill < nextAt {
				nextAt, victim, timeout = kill, j, true
			}
		}
	}
	return nextAt, victim, timeout
}

// linearAdvanceTo is the seed's clock advance: drain every running
// job's remaining work in place, touching the whole retained table.
func linearAdvanceTo(c *Cluster, t time.Duration) {
	dt := (t - c.now).Seconds()
	if dt < 0 {
		return
	}
	for _, j := range c.records {
		if j.State == Running {
			j.remaining -= j.rate * (t - j.settledAt).Seconds()
			if j.remaining < 0 {
				j.remaining = 0
			}
			j.settledAt = t
		}
	}
	c.now = t
}

// linearStep dispatches the next completion/timeout the way the seed's
// Step did. The benchmark workload has no node events or requeues, so
// those branches are omitted.
func linearStep(c *Cluster) bool {
	jobAt, victim, timeout := linearNextJobEvent(c)
	if victim == nil {
		return false
	}
	linearAdvanceTo(c, jobAt)
	if timeout {
		c.finish(victim, TimedOut)
	} else {
		victim.remaining = 0
		c.finish(victim, Completed)
	}
	c.evict(victim)
	c.schedule()
	return true
}

// linearRunUntil processes due events then advances the clock to t,
// returning how many events it dispatched.
func linearRunUntil(c *Cluster, t time.Duration) int {
	n := 0
	for {
		jobAt, victim, _ := linearNextJobEvent(c)
		if victim == nil || jobAt > t {
			break
		}
		if !linearStep(c) {
			break
		}
		n++
	}
	linearAdvanceTo(c, t)
	return n
}
