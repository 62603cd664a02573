package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/cluster"
)

// Arrival is one generated job: submit it At (virtual time) with Spec.
type Arrival struct {
	At   time.Duration
	Spec cluster.JobSpec
}

// Generator streams arrivals from a Spec. It is deterministic: the same
// (spec, seed, multiplier) always produces the same infinite stream,
// and it holds O(1) state. A JobSpec is handed out by value. Its Name
// is cut from one string that holds the names of 256 arrivals back to
// back, so a block of arrivals costs one allocation. A name keeps its
// whole block alive: while jobs are held, the extra live memory is at
// most one block (about 2.3 KiB at six-digit job numbers) per job, and
// it is gone once they are dropped.
type Generator struct {
	spec *Spec
	rng  *rand.Rand
	zipf *rand.Zipf
	mult float64
	t    time.Duration
	n    int

	// names holds "wl-N" for the next arrivals, packed back to back;
	// scratch is the reused buffer the block is built in.
	names   string
	scratch []byte

	// bursty (MMPP) state: which rate regime we are in and when the
	// current exponential sojourn expires.
	burstOn    bool
	stateUntil time.Duration
}

// NewGenerator builds a generator for spec seeded with seed. The rate
// multiplier starts at 1; saturation sweeps scale it with
// SetRateMultiplier before drawing.
func NewGenerator(spec *Spec, seed int64) *Generator {
	g := &Generator{spec: spec, rng: rand.New(rand.NewSource(seed)), mult: 1}
	if spec.Tasks.Kind == DistZipf {
		// rand.Zipf draws 0..imax with P(k) ∝ 1/(1+k)^alpha; shift by
		// one so widths land in 1..max, skewed toward single-rank jobs.
		g.zipf = rand.NewZipf(g.rng, spec.Tasks.Alpha, 1, uint64(spec.Tasks.A)-1)
	}
	if spec.Arrival.Kind == ArrivalBursty {
		g.stateUntil = g.expDur(spec.Arrival.Off)
	}
	return g
}

// SetRateMultiplier scales the arrival rate by m (runtimes and widths
// are untouched). Call it before the first Next; changing it mid-stream
// applies from the next draw.
func (g *Generator) SetRateMultiplier(m float64) {
	if m <= 0 || math.IsInf(m, 0) || math.IsNaN(m) {
		panic(fmt.Sprintf("workload: rate multiplier %v out of range", m))
	}
	g.mult = m
}

// Count reports how many arrivals have been drawn.
func (g *Generator) Count() int { return g.n }

// Next draws the next arrival. The stream is infinite; callers decide
// how many jobs to take.
func (g *Generator) Next() Arrival {
	g.advance()
	g.n++
	if g.names == "" {
		g.fillNames()
	}
	k := len("wl-") + decimalLen(g.n)
	name := g.names[:k]
	g.names = g.names[k:]
	spec := cluster.JobSpec{
		Name:    name,
		Tasks:   g.sampleTasks(),
		Requeue: g.spec.Requeue,
	}
	runtime := g.sampleRuntime()
	spec.BaseTime = satDur(runtime)
	switch {
	case g.spec.TimeLimitFactor > 0:
		spec.TimeLimit = satDur(g.spec.TimeLimitFactor * runtime)
	case g.spec.TimeLimit > 0:
		spec.TimeLimit = g.spec.TimeLimit
	}
	return Arrival{At: g.t, Spec: spec}
}

// nameBlock is how many arrivals' names one allocation holds.
const nameBlock = 256

// fillNames builds the names of arrivals g.n to g.n+nameBlock-1.
func (g *Generator) fillNames() {
	b := g.scratch[:0]
	for i := 0; i < nameBlock; i++ {
		b = strconv.AppendInt(append(b, "wl-"...), int64(g.n+i), 10)
	}
	g.scratch = b
	g.names = string(b)
}

// decimalLen reports how many digits n > 0 has in base 10.
func decimalLen(n int) int {
	d := 1
	for ; n >= 10; n /= 10 {
		d++
	}
	return d
}

// advance moves the clock to the next arrival of the configured
// process.
func (g *Generator) advance() {
	a := &g.spec.Arrival
	switch a.Kind {
	case ArrivalPoisson:
		g.t = satAdd(g.t, g.expInterarrival(a.Rate*g.mult))
	case ArrivalDiurnal:
		// Thinning (Lewis–Shedler): draw candidate arrivals at the peak
		// rate, accept each with probability λ(t)/peak. Exact for any
		// bounded rate function, and O(peak/mean) draws per arrival.
		envelope := a.Peak * g.mult
		for {
			g.t = satAdd(g.t, g.expInterarrival(envelope))
			phase := (1 - math.Cos(2*math.Pi*float64(g.t)/float64(a.Period))) / 2
			rate := (a.Rate + (a.Peak-a.Rate)*phase) * g.mult
			if g.rng.Float64()*envelope <= rate {
				return
			}
		}
	case ArrivalBursty:
		// Two-state MMPP. Exponential sojourns are memoryless, so an
		// interarrival that crosses a state boundary restarts cleanly
		// at the boundary under the new rate.
		for {
			rate := a.Rate
			if g.burstOn {
				rate = a.Peak
			}
			dt := g.expInterarrival(rate * g.mult)
			if dt <= g.stateUntil-g.t { // overflow-safe g.t+dt <= stateUntil
				g.t = satAdd(g.t, dt)
				return
			}
			g.t = g.stateUntil
			g.burstOn = !g.burstOn
			if g.burstOn {
				g.stateUntil = satAdd(g.t, g.expDur(a.On))
			} else {
				g.stateUntil = satAdd(g.t, g.expDur(a.Off))
			}
		}
	}
}

// expInterarrival draws an exponential gap for a Poisson process at
// rate (jobs/sec).
func (g *Generator) expInterarrival(rate float64) time.Duration {
	return satDur(g.rng.ExpFloat64() / rate)
}

// expDur draws an exponential duration with the given mean.
func (g *Generator) expDur(mean time.Duration) time.Duration {
	return satDur(g.rng.ExpFloat64() * mean.Seconds())
}

// satDur converts seconds to a Duration, saturating instead of
// wrapping: a spec with a vanishing rate must stall the clock at the
// far future, not overflow it into the past.
func satDur(sec float64) time.Duration {
	if !(sec >= 0) { // also catches NaN
		return 0
	}
	if sec >= math.MaxInt64/float64(time.Second) {
		return math.MaxInt64
	}
	return time.Duration(sec * float64(time.Second))
}

// satAdd adds two non-negative durations without wrapping.
func satAdd(a, b time.Duration) time.Duration {
	if b > math.MaxInt64-a {
		return math.MaxInt64
	}
	return a + b
}

// sampleRuntime draws a job runtime in seconds.
func (g *Generator) sampleRuntime() float64 {
	d := &g.spec.Runtime
	var v float64
	switch d.Kind {
	case DistFixed:
		return d.A
	case DistUniform:
		return d.A + g.rng.Float64()*(d.B-d.A)
	case DistExp:
		v = g.rng.ExpFloat64() * d.A
	case DistPareto:
		// Inverse-CDF: x = xmin · u^(−1/α) with u uniform on (0, 1].
		u := 1 - g.rng.Float64()
		v = d.A * math.Pow(u, -1/d.Alpha)
	}
	if d.B > 0 && v > d.B {
		v = d.B
	}
	if v < 1e-9 {
		v = 1e-9 // the scheduler needs strictly positive runtimes
	}
	return v
}

// sampleTasks draws a job width (ranks).
func (g *Generator) sampleTasks() int {
	d := &g.spec.Tasks
	switch d.Kind {
	case DistUniform:
		lo, hi := int(d.A), int(d.B)
		return lo + g.rng.Intn(hi-lo+1)
	case DistZipf:
		return int(g.zipf.Uint64()) + 1
	default: // DistFixed
		return int(d.A)
	}
}

// MaxTasks reports the widest job the spec can emit, so callers can
// size the cluster to fit the workload.
func (s *Spec) MaxTasks() int {
	switch s.Tasks.Kind {
	case DistUniform:
		return int(s.Tasks.B)
	default: // fixed and zipf both carry the max in A
		return int(s.Tasks.A)
	}
}
