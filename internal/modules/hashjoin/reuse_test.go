package hashjoin

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/mpi"
)

// unevenDeal splits tuples into ranks contiguous fragments, rank r's
// proportional to r+1, so that every rank sends and receives a
// differently sized share.
func unevenDeal(tuples []Tuple, ranks int) [][]Tuple {
	out := make([][]Tuple, ranks)
	total := ranks * (ranks + 1) / 2
	lo := 0
	for r := range out {
		hi := lo + len(tuples)*(r+1)/total
		if r == ranks-1 {
			hi = len(tuples)
		}
		out[r] = tuples[lo:hi]
		lo = hi
	}
	return out
}

// relation is one named pair of relations.
type relation struct {
	name         string
	build, probe []Tuple
}

// reuseRelations are key sets under which the probe's partition is
// sometimes larger and sometimes smaller than the build's it reuses, on
// some ranks and not others.
func reuseRelations() []relation {
	rng := rand.New(rand.NewSource(43))
	tuples := func(n int, key func(i int) int64, base int64) []Tuple {
		ts := make([]Tuple, n)
		for i := range ts {
			ts[i] = Tuple{Key: key(i), Payload: base + int64(i)}
		}
		return ts
	}
	uniform := func(keyRange int64) func(int) int64 {
		return func(int) int64 { return rng.Int63n(keyRange) }
	}
	// A quarter of the tuples on one key, the rest uniform: one owner
	// receives far more than it sends.
	skewed := func(keyRange int64) func(int) int64 {
		return func(i int) int64 {
			if i%4 == 0 {
				return 7
			}
			return rng.Int63n(keyRange)
		}
	}
	return []relation{
		{"uniform", tuples(3000, uniform(600), 0), tuples(3000, uniform(600), 1_000_000)},
		{"duplicates", tuples(3000, uniform(6), 0), tuples(900, uniform(6), 1_000_000)},
		{"small-build", tuples(400, uniform(300), 0), tuples(5000, uniform(300), 1_000_000)},
		{"large-build", tuples(5000, uniform(3000), 0), tuples(400, uniform(3000), 1_000_000)},
		{"skewed-probe", tuples(3000, uniform(1000), 0), tuples(3000, skewed(1000), 1_000_000)},
		{"skewed-build", tuples(3000, skewed(1000), 0), tuples(2000, uniform(1000), 1_000_000)},
	}
}

// TestJoinBufferReuse: the probe phase writes into buffers the build
// phase is done with, so a reused buffer must never be one a send still
// reads. Each configuration keeps the sends lent or in flight longer in
// its own way (every send rendezvous, every send synchronous, a wire
// latency, sockets), and the key sets make the spare buffer fit on some
// ranks and not others. All three joins must equal Sequential as
// multisets, and so each other, and report the same match count.
func TestJoinBufferReuse(t *testing.T) {
	const ranks, reps = 4, 3
	configs := []struct {
		name string
		run  func(int, func(*mpi.Comm) error, ...mpi.Option) error
		opts []mpi.Option
	}{
		{"eager-threshold-1", mpi.Run, []mpi.Option{mpi.WithEagerThreshold(1)}},
		{"synchronous-sends", mpi.Run, []mpi.Option{mpi.WithSynchronousSends()}},
		{"link-latency", mpi.Run, []mpi.Option{mpi.WithLinkLatency(200 * time.Microsecond)}},
		{"tcp", mpi.RunTCP, nil},
	}
	joins := []struct {
		name string
		join func(*mpi.Comm, []Tuple, []Tuple) ([]Pair, Result, error)
	}{
		{"Join", Join},
		{"JoinRMA", JoinRMA},
		{"JoinRMAPerTuple", JoinRMAPerTuple},
	}
	for _, rel := range reuseRelations() {
		want := Sequential(rel.build, rel.probe)
		sortPairs(want)
		lb, lp := unevenDeal(rel.build, ranks), unevenDeal(rel.probe, ranks)
		for _, cfg := range configs {
			t.Run(fmt.Sprintf("%s/%s", rel.name, cfg.name), func(t *testing.T) {
				for _, j := range joins {
					for rep := 0; rep < reps; rep++ {
						outs := make([][]Pair, ranks)
						var matches int64
						err := cfg.run(ranks, func(c *mpi.Comm) error {
							out, res, err := j.join(c, lb[c.Rank()], lp[c.Rank()])
							outs[c.Rank()] = out
							if c.Rank() == 0 {
								matches = res.Matches
							}
							return err
						}, cfg.opts...)
						if err != nil {
							t.Fatalf("%s: %v", j.name, err)
						}
						got := slices.Concat(outs...)
						sortPairs(got)
						if !slices.Equal(got, want) || matches != int64(len(want)) {
							t.Fatalf("%s, run %d: %d pairs (global count %d), Sequential's %d, or other pairs",
								j.name, rep, len(got), matches, len(want))
						}
					}
				}
			})
		}
	}
}

// TestPerTupleClaimsStayLinear bounds JoinRMAPerTuple's CompareAndSwap
// count on a build of many duplicates. A claim fails only when another
// rank claimed on the same owner since this rank's last claim there, so
// np ranks make at most np CASes per tuple, however few the keys.
func TestPerTupleClaimsStayLinear(t *testing.T) {
	const ranks, n = 4, 4000
	build := make([]Tuple, n)
	for i := range build {
		build[i] = Tuple{Key: int64(i % 5), Payload: int64(i)}
	}
	lb := unevenDeal(build, ranks)
	var cas int64
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		if _, _, err := JoinRMAPerTuple(c, lb[c.Rank()], nil); err != nil {
			return err
		}
		if c.Rank() == 0 {
			cas = c.Stats().TotalCalls(mpi.PrimRMACas)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cas < n || cas > ranks*n {
		t.Fatalf("%d CompareAndSwaps for %d build tuples on %d ranks, want %d to %d", cas, n, ranks, n, ranks*n)
	}
}
