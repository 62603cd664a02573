//go:build !race

package hashjoin

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/mpi"
)

// dealt returns per-rank build and probe fragments of perRank tuples
// each over keys distinct keys.
func dealt(ranks, perRank int, keys int64) (build, probe [][]Tuple) {
	rng := rand.New(rand.NewSource(int64(perRank)))
	build, probe = make([][]Tuple, ranks), make([][]Tuple, ranks)
	for r := 0; r < ranks; r++ {
		for i := 0; i < perRank; i++ {
			build[r] = append(build[r], Tuple{Key: rng.Int63n(keys), Payload: int64(i)})
			probe[r] = append(probe[r], Tuple{Key: rng.Int63n(keys), Payload: int64(i)})
		}
	}
	return build, probe
}

// TestAllocJoinIndependentOfKeys pins what the flat data path buys: a
// whole np = 4 join allocates the same handful of arrays at ten times
// the tuples and ten times the distinct keys — the map it replaced
// allocated ~3.5 times per distinct key. (The race detector's
// instrumentation allocates, so this runs without it; and a collection
// in mid-measurement allocates and empties the runtime's buffer pools,
// so the collector is off while counting.)
func TestAllocJoinIndependentOfKeys(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const ranks = 4
	for _, tc := range []struct {
		name string
		join func(*mpi.Comm, []Tuple, []Tuple) ([]Pair, Result, error)
	}{
		{"Join", Join},
		{"JoinRMA", JoinRMA},
	} {
		t.Run(tc.name, func(t *testing.T) {
			measure := func(perRank int, keys int64) float64 {
				build, probe := dealt(ranks, perRank, keys)
				return testing.AllocsPerRun(5, func() {
					err := mpi.Run(ranks, func(c *mpi.Comm) error {
						_, _, err := tc.join(c, build[c.Rank()], probe[c.Rank()])
						return err
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
			small, large := measure(5_000, 5_000), measure(50_000, 50_000)
			t.Logf("allocations per join: %.0f at 5k tuples/rank, %.0f at 50k", small, large)
			if large-small > 16 || small-large > 16 {
				t.Fatalf("join allocates %.0f times at 5k tuples/rank and %.0f at 50k: it should not depend on size", small, large)
			}
		})
	}
}

// TestAllocLocalKernels: the build is four arrays and the probe one,
// whatever the size.
func TestAllocLocalKernels(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, n := range []int{100, 10_000, 200_000} {
		rng := rand.New(rand.NewSource(int64(n)))
		build := stream(randomKeys(rng, n, int64(n)), 0)
		probe := stream(randomKeys(rng, n, int64(n)), 0)
		if avg := testing.AllocsPerRun(5, func() { flatJoin(t, build, probe) }); avg > 6 {
			t.Fatalf("build + probe of %d tuples allocates %.0f times, want <= 6", n, avg)
		}
	}
}

// TestAllocJoinBytes bounds what one join allocates: its output, 16 B a
// match, plus at most scratch × 16 B per input tuple. The relations are
// the join-rma benchmark's shape scaled down, five build tuples per key.
// The scratch is one buffer per live phase: the probe partitions into
// the build's partition buffer, Join's probe stream is received into
// the build's, and the probe records its runs over its stream's keys.
// With a buffer per phase instead, both joins read about 3.1 × 16 B per
// input tuple here; this layout reads 1.8 (Join) and 2.3 (JoinRMA, whose
// window and Put batches hold the build once more).
func TestAllocJoinBytes(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const (
		ranks, perRank = 4, 10_000
		keys           = ranks * perRank / 5
		joins          = 5
	)
	build, probe := dealt(ranks, perRank, keys)
	for _, tc := range []struct {
		name    string
		join    func(*mpi.Comm, []Tuple, []Tuple) ([]Pair, Result, error)
		scratch float64
	}{
		{"Join", Join, 2.0},
		{"JoinRMA", JoinRMA, 2.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var matches int64
			joinOnce := func() {
				err := mpi.Run(ranks, func(c *mpi.Comm) error {
					_, res, err := tc.join(c, build[c.Rank()], probe[c.Rank()])
					if c.Rank() == 0 {
						matches = res.Matches
					}
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			joinOnce()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < joins; i++ {
				joinOnce()
			}
			runtime.ReadMemStats(&after)
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / joins
			inputs := float64(2 * ranks * perRank)
			scratch := (bytes - tupleBytes*float64(matches)) / (tupleBytes * inputs)
			t.Logf("%.0f KiB per join: %d matches' output + %.2f x 16 B per input tuple", bytes/1024, matches, scratch)
			if scratch > tc.scratch {
				t.Fatalf("a join of %.0f tuples with %d matches allocates %.0f bytes: %.2f x 16 B per input tuple past its output, want <= %.1f",
					inputs, matches, bytes, scratch, tc.scratch)
			}
		})
	}
}
