// Package workload generates synthetic job streams for the cluster
// scheduler simulator and analyzes where a cluster saturates. It is the
// trace-driven counterpart to hand-written demo workloads: a compact
// spec string describes an arrival process (Poisson, diurnal, bursty),
// a runtime distribution (fixed, uniform, exponential, heavy-tailed
// Pareto), and a task-width distribution (fixed, uniform, zipf), and a
// seeded generator streams millions of JobSpecs from it without ever
// materializing the workload. The shapes follow what production traces
// show (Feitelson's workload archive; ServeGen-style multi-period
// generators): day/night arrival cycles, bursts, and heavy-tailed
// service times — the regimes where FIFO and backfill scheduling
// actually diverge.
package workload

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// ArrivalKind selects the arrival process.
type ArrivalKind int

const (
	// ArrivalPoisson is a homogeneous Poisson process at Rate jobs/sec.
	ArrivalPoisson ArrivalKind = iota
	// ArrivalDiurnal is a nonhomogeneous Poisson process whose rate
	// swings sinusoidally between Trough and Peak over Period (the
	// day/night cycle of a campus cluster). Time zero is the trough.
	ArrivalDiurnal
	// ArrivalBursty is a two-state Markov-modulated Poisson process:
	// exponentially-distributed quiet stretches at Rate punctuated by
	// bursts at Peak with mean length On and mean gap Off.
	ArrivalBursty
)

// DistKind selects a scalar distribution for runtimes or task widths.
type DistKind int

const (
	DistFixed DistKind = iota
	DistUniform
	DistExp
	DistPareto
	DistZipf
)

// ArrivalSpec parameterizes the arrival process. Rates are jobs per
// second of virtual time.
type ArrivalSpec struct {
	Kind   ArrivalKind
	Rate   float64       // poisson rate; diurnal trough; bursty base
	Peak   float64       // diurnal peak; bursty burst rate
	Period time.Duration // diurnal cycle length
	On     time.Duration // bursty: mean burst length
	Off    time.Duration // bursty: mean gap between bursts
}

// Dist parameterizes a runtime or task-width distribution.
//
//	fixed:   A              (constant)
//	uniform: [A, B]         (A=min, B=max)
//	exp:     mean A, optional cap B (0 = uncapped)
//	pareto:  shape Alpha, scale A, optional cap B (0 = uncapped)
//	zipf:    widths 1..int(A), skew Alpha (>1)
type Dist struct {
	Kind  DistKind
	A, B  float64
	Alpha float64
}

// Spec is a parsed workload description.
type Spec struct {
	Arrival ArrivalSpec
	Runtime Dist // seconds
	Tasks   Dist // ranks per job
	// TimeLimit, when set, is attached to every job. TimeLimitFactor,
	// when set, derives the limit from the sampled runtime instead
	// (limit = factor × runtime); this is the "users pad their walltime
	// estimate" model backfill depends on.
	TimeLimit       time.Duration
	TimeLimitFactor float64
	// Requeue submits every job with sbatch --requeue semantics, for
	// fault-plan sweeps.
	Requeue bool

	raw string
}

// String returns the original spec text.
func (s *Spec) String() string { return s.raw }

// DefaultSpec is the workload used when the caller gives none: a steady
// Poisson stream of modest, exponentially-sized jobs.
const DefaultSpec = "poisson:360/h;runtime=exp:90s;tasks=fixed:8"

// Parse compiles a workload spec. The grammar is `;`-separated clauses;
// the first clause is the arrival process, the rest are keyed:
//
//	poisson:RATE
//	diurnal:peak=RATE,trough=RATE[,period=DUR]
//	bursty:base=RATE,burst=RATE[,on=DUR][,off=DUR]
//	runtime=fixed:DUR | uniform:DUR,DUR | exp:DUR[,DUR] | pareto:ALPHA,DUR[,DUR]
//	tasks=fixed:N | uniform:N,N | zipf:N[,SKEW]
//	timelimit=DUR | timelimit=FACTORx
//	requeue
//
// RATE is a float with a unit suffix: 2000/h, 30/m, 0.5/s. Example:
//
//	diurnal:peak=2000/h,trough=200/h;runtime=pareto:1.5,30s;tasks=zipf:64
func Parse(spec string) (*Spec, error) {
	s := &Spec{
		Runtime: Dist{Kind: DistExp, A: 60},
		Tasks:   Dist{Kind: DistFixed, A: 1},
		raw:     spec,
	}
	clauses := strings.Split(spec, ";")
	if len(clauses) == 0 || strings.TrimSpace(clauses[0]) == "" {
		return nil, fmt.Errorf("workload: empty spec")
	}
	if err := s.parseArrival(strings.TrimSpace(clauses[0])); err != nil {
		return nil, err
	}
	for _, cl := range clauses[1:] {
		cl = strings.TrimSpace(cl)
		if cl == "" {
			continue
		}
		if cl == "requeue" {
			s.Requeue = true
			continue
		}
		key, val, ok := strings.Cut(cl, "=")
		if !ok {
			return nil, fmt.Errorf("workload: clause %q: want key=value (or bare 'requeue')", cl)
		}
		var err error
		switch key {
		case "runtime":
			s.Runtime, err = parseRuntimeDist(val)
		case "tasks":
			s.Tasks, err = parseTasksDist(val)
		case "timelimit":
			err = s.parseTimeLimit(val)
		default:
			err = fmt.Errorf("workload: unknown clause %q", key)
		}
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// MustParse is Parse for hard-coded demo specs; it panics on error.
func MustParse(spec string) *Spec {
	s, err := Parse(spec)
	if err != nil {
		panic(err)
	}
	return s
}

func (s *Spec) parseArrival(clause string) error {
	kind, rest, _ := strings.Cut(clause, ":")
	switch kind {
	case "poisson":
		rate, err := parseRate(rest)
		if err != nil {
			return fmt.Errorf("workload: poisson: %w", err)
		}
		s.Arrival = ArrivalSpec{Kind: ArrivalPoisson, Rate: rate}
		return nil
	case "diurnal":
		a := ArrivalSpec{Kind: ArrivalDiurnal, Period: 24 * time.Hour}
		fields, err := parseKVList(rest)
		if err != nil {
			return fmt.Errorf("workload: diurnal: %w", err)
		}
		for k, v := range fields {
			switch k {
			case "peak":
				a.Peak, err = parseRate(v)
			case "trough":
				a.Rate, err = parseRate(v)
			case "period":
				a.Period, err = parsePositiveDuration(v)
			default:
				err = fmt.Errorf("unknown field %q", k)
			}
			if err != nil {
				return fmt.Errorf("workload: diurnal: %w", err)
			}
		}
		if a.Peak <= 0 || a.Rate <= 0 {
			return fmt.Errorf("workload: diurnal: need peak= and trough= rates > 0")
		}
		if a.Peak < a.Rate {
			return fmt.Errorf("workload: diurnal: peak (%g/s) below trough (%g/s)", a.Peak, a.Rate)
		}
		s.Arrival = a
		return nil
	case "bursty":
		a := ArrivalSpec{Kind: ArrivalBursty, On: 5 * time.Minute, Off: time.Hour}
		fields, err := parseKVList(rest)
		if err != nil {
			return fmt.Errorf("workload: bursty: %w", err)
		}
		for k, v := range fields {
			switch k {
			case "base":
				a.Rate, err = parseRate(v)
			case "burst":
				a.Peak, err = parseRate(v)
			case "on":
				a.On, err = parsePositiveDuration(v)
			case "off":
				a.Off, err = parsePositiveDuration(v)
			default:
				err = fmt.Errorf("unknown field %q", k)
			}
			if err != nil {
				return fmt.Errorf("workload: bursty: %w", err)
			}
		}
		if a.Rate <= 0 || a.Peak <= 0 {
			return fmt.Errorf("workload: bursty: need base= and burst= rates > 0")
		}
		if a.Peak < a.Rate {
			return fmt.Errorf("workload: bursty: burst (%g/s) below base (%g/s)", a.Peak, a.Rate)
		}
		s.Arrival = a
		return nil
	default:
		return fmt.Errorf("workload: unknown arrival process %q (want poisson, diurnal, or bursty)", kind)
	}
}

func parseRuntimeDist(val string) (Dist, error) {
	kind, rest, _ := strings.Cut(val, ":")
	args := splitArgs(rest)
	bad := func(format string, a ...any) (Dist, error) {
		return Dist{}, fmt.Errorf("workload: runtime=%s: %s", val, fmt.Sprintf(format, a...))
	}
	switch kind {
	case "fixed":
		if len(args) != 1 {
			return bad("want fixed:DUR")
		}
		d, err := parsePositiveDuration(args[0])
		if err != nil {
			return bad("%v", err)
		}
		return Dist{Kind: DistFixed, A: d.Seconds()}, nil
	case "uniform":
		if len(args) != 2 {
			return bad("want uniform:MIN,MAX")
		}
		lo, err1 := parsePositiveDuration(args[0])
		hi, err2 := parsePositiveDuration(args[1])
		if err1 != nil || err2 != nil || hi < lo {
			return bad("want two durations with MIN <= MAX")
		}
		return Dist{Kind: DistUniform, A: lo.Seconds(), B: hi.Seconds()}, nil
	case "exp":
		if len(args) < 1 || len(args) > 2 {
			return bad("want exp:MEAN[,CAP]")
		}
		mean, err := parsePositiveDuration(args[0])
		if err != nil {
			return bad("%v", err)
		}
		d := Dist{Kind: DistExp, A: mean.Seconds()}
		if len(args) == 2 {
			cap, err := parsePositiveDuration(args[1])
			if err != nil {
				return bad("%v", err)
			}
			d.B = cap.Seconds()
		}
		return d, nil
	case "pareto":
		if len(args) < 2 || len(args) > 3 {
			return bad("want pareto:ALPHA,XMIN[,CAP]")
		}
		alpha, err := strconv.ParseFloat(args[0], 64)
		if err != nil || !(alpha > 1) || math.IsInf(alpha, 0) {
			return bad("shape alpha must be > 1 (finite mean)")
		}
		xmin, err := parsePositiveDuration(args[1])
		if err != nil {
			return bad("%v", err)
		}
		d := Dist{Kind: DistPareto, Alpha: alpha, A: xmin.Seconds()}
		if len(args) == 3 {
			cap, err := parsePositiveDuration(args[2])
			if err != nil {
				return bad("%v", err)
			}
			if cap < xmin {
				return bad("cap below xmin")
			}
			d.B = cap.Seconds()
		}
		return d, nil
	default:
		return bad("unknown distribution (want fixed, uniform, exp, or pareto)")
	}
}

func parseTasksDist(val string) (Dist, error) {
	kind, rest, _ := strings.Cut(val, ":")
	args := splitArgs(rest)
	bad := func(format string, a ...any) (Dist, error) {
		return Dist{}, fmt.Errorf("workload: tasks=%s: %s", val, fmt.Sprintf(format, a...))
	}
	switch kind {
	case "fixed":
		if len(args) != 1 {
			return bad("want fixed:N")
		}
		n, err := strconv.Atoi(args[0])
		if err != nil || n < 1 {
			return bad("want a positive integer")
		}
		return Dist{Kind: DistFixed, A: float64(n)}, nil
	case "uniform":
		if len(args) != 2 {
			return bad("want uniform:MIN,MAX")
		}
		lo, err1 := strconv.Atoi(args[0])
		hi, err2 := strconv.Atoi(args[1])
		if err1 != nil || err2 != nil || lo < 1 || hi < lo {
			return bad("want integers 1 <= MIN <= MAX")
		}
		return Dist{Kind: DistUniform, A: float64(lo), B: float64(hi)}, nil
	case "zipf":
		if len(args) < 1 || len(args) > 2 {
			return bad("want zipf:MAX[,SKEW]")
		}
		max, err := strconv.Atoi(args[0])
		if err != nil || max < 1 {
			return bad("MAX must be a positive integer")
		}
		d := Dist{Kind: DistZipf, A: float64(max), Alpha: 1.4}
		if len(args) == 2 {
			skew, err := strconv.ParseFloat(args[1], 64)
			if err != nil || !(skew > 1) || math.IsInf(skew, 0) {
				return bad("SKEW must be > 1")
			}
			d.Alpha = skew
		}
		return d, nil
	default:
		return bad("unknown distribution (want fixed, uniform, or zipf)")
	}
}

func (s *Spec) parseTimeLimit(val string) error {
	if f, ok := strings.CutSuffix(val, "x"); ok {
		factor, err := strconv.ParseFloat(f, 64)
		if err != nil || !(factor >= 1) || math.IsInf(factor, 0) {
			return fmt.Errorf("workload: timelimit=%s: factor must be >= 1", val)
		}
		s.TimeLimitFactor = factor
		return nil
	}
	d, err := parsePositiveDuration(val)
	if err != nil {
		return fmt.Errorf("workload: timelimit=%s: %v", val, err)
	}
	s.TimeLimit = d
	return nil
}

// parseRate reads "2000/h", "30/m", "0.5/s" into jobs per second.
func parseRate(v string) (float64, error) {
	num, unit, ok := strings.Cut(v, "/")
	if !ok {
		return 0, fmt.Errorf("rate %q: want NUMBER/h, NUMBER/m, or NUMBER/s", v)
	}
	n, err := strconv.ParseFloat(num, 64)
	if err != nil || !(n > 0) || math.IsInf(n, 0) {
		return 0, fmt.Errorf("rate %q: want a positive number", v)
	}
	switch unit {
	case "s":
		return n, nil
	case "m":
		return n / 60, nil
	case "h":
		return n / 3600, nil
	default:
		return 0, fmt.Errorf("rate %q: unknown unit %q (want s, m, or h)", v, unit)
	}
}

func parsePositiveDuration(v string) (time.Duration, error) {
	d, err := time.ParseDuration(v)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("duration %q: want a positive Go duration", v)
	}
	return d, nil
}

// parseKVList reads "peak=2000/h,trough=200/h" into a map.
func parseKVList(rest string) (map[string]string, error) {
	fields := make(map[string]string)
	if strings.TrimSpace(rest) == "" {
		return fields, nil
	}
	for _, kv := range strings.Split(rest, ",") {
		k, v, ok := strings.Cut(kv, "=")
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("field %q: want key=value", kv)
		}
		if _, dup := fields[k]; dup {
			return nil, fmt.Errorf("duplicate field %q", k)
		}
		fields[k] = v
	}
	return fields, nil
}

func splitArgs(rest string) []string {
	if strings.TrimSpace(rest) == "" {
		return nil
	}
	parts := strings.Split(rest, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}
