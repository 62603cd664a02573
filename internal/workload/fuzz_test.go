package workload

import (
	"math"
	"testing"
	"time"
)

// FuzzWorkloadSpec throws arbitrary spec strings at the parser: invalid
// specs must error (never panic), and any spec that parses must drive a
// generator that emits a sane, deterministic, monotone arrival stream.
// Every float field of a parsed spec is finite, so a NaN fails at parse
// time instead of stalling or collapsing the generator.
func FuzzWorkloadSpec(f *testing.F) {
	for _, seed := range []string{
		DefaultSpec,
		"diurnal:peak=2000/h,trough=200/h;runtime=pareto:1.5,30s;tasks=zipf:64",
		"bursty:base=200/h,burst=4000/h,on=5m,off=1h;runtime=uniform:10s,90s;tasks=uniform:1,32",
		"poisson:0.5/s;runtime=fixed:30s;tasks=fixed:8;timelimit=2x;requeue",
		"poisson:1200/h;runtime=exp:45s,1h;tasks=zipf:16,2.5;timelimit=30m",
		"diurnal:peak=1/s,trough=0.01/s,period=90m",
		"poisson:1/s;runtime=pareto:1.01,1s",
		"poisson:1e300/s",
		"poisson:0.000001/h;runtime=exp:1000000h",
		"poisson:1/s;;;",
		"poisson:1/s;runtime=pareto:0.5,30s",
		"nonsense",
		"poisson:−5/s", // unicode minus
		"poisson:1/s;tasks=zipf:8,NaN",
		"poisson:1/s;runtime=pareto:NaN,30s",
		"poisson:1/s;timelimit=NaNx",
		"poisson:NaN/h",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		spec, err := Parse(raw)
		if err != nil {
			return // invalid specs error; the contract is "never panic"
		}
		for _, v := range []float64{
			spec.Arrival.Rate, spec.Arrival.Peak,
			spec.Runtime.A, spec.Runtime.B, spec.Runtime.Alpha,
			spec.Tasks.A, spec.Tasks.B, spec.Tasks.Alpha,
			spec.TimeLimitFactor,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%q: parsed spec has a non-finite field: %+v", raw, *spec)
			}
		}
		a := NewGenerator(spec, 99)
		b := NewGenerator(spec, 99)
		var prev time.Duration
		for i := 0; i < 32; i++ {
			x, y := a.Next(), b.Next()
			if x.At != y.At || x.Spec.BaseTime != y.Spec.BaseTime || x.Spec.Tasks != y.Spec.Tasks {
				t.Fatalf("%q: draw %d not deterministic: %+v vs %+v", raw, i, x, y)
			}
			if x.Spec.Name != refName(i+1) {
				t.Fatalf("%q: draw %d named %q, want %q", raw, i, x.Spec.Name, refName(i+1))
			}
			if x.At < prev {
				t.Fatalf("%q: arrival %d at %v before %v", raw, i, x.At, prev)
			}
			if x.Spec.BaseTime <= 0 {
				t.Fatalf("%q: draw %d has non-positive runtime %v", raw, i, x.Spec.BaseTime)
			}
			if x.Spec.Tasks < 1 || x.Spec.Tasks > spec.MaxTasks() {
				t.Fatalf("%q: draw %d width %d outside [1, %d]", raw, i, x.Spec.Tasks, spec.MaxTasks())
			}
			if x.Spec.TimeLimit < 0 {
				t.Fatalf("%q: draw %d negative time limit %v", raw, i, x.Spec.TimeLimit)
			}
			prev = x.At
		}
	})
}
