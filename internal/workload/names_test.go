package workload

import (
	"strconv"
	"testing"
)

// refName is the job name the generator gives its nth arrival.
func refName(n int) string { return "wl-" + strconv.Itoa(n) }

// TestNamesMatchRef holds the names cut from shared blocks to the one
// string per arrival they replace. 100,001 arrivals cross every
// digit-length step up to 100,000 and hundreds of block edges, and the
// arrival process must not move a name. The first name must still read
// the same once every later block has been built in the reused scratch.
func TestNamesMatchRef(t *testing.T) {
	const arrivals = 100_001
	for _, spec := range []string{
		"poisson:2500/h;runtime=exp:60s,30m;tasks=fixed:4",
		"diurnal:peak=2000/h,trough=200/h,period=4h;runtime=pareto:1.5,30s;tasks=zipf:64",
		"bursty:base=200/h,burst=4000/h,on=5m,off=30m;runtime=uniform:10s,90s;tasks=uniform:1,16",
	} {
		g := NewGenerator(MustParse(spec), 7)
		first := g.Next().Spec.Name
		if first != refName(1) {
			t.Fatalf("%s: arrival 1 named %q, want %q", spec, first, refName(1))
		}
		for n := 2; n <= arrivals; n++ {
			if got := g.Next().Spec.Name; got != refName(n) {
				t.Fatalf("%s: arrival %d named %q, want %q", spec, n, got, refName(n))
			}
		}
		if first != refName(1) {
			t.Errorf("%s: arrival 1's name changed to %q after %d arrivals", spec, first, arrivals)
		}
	}
}
