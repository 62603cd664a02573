package hashjoin

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mpi"
)

// makeRelations builds deterministic test relations: build keys 0..nb-1
// (payload = 10*key), probe keys drawn from a range with duplicates.
func makeRelations(nb, np int, keyRange int64, seed int64) (build, probe []Tuple) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < nb; i++ {
		build = append(build, Tuple{Key: rng.Int63n(keyRange), Payload: int64(i)})
	}
	for i := 0; i < np; i++ {
		probe = append(probe, Tuple{Key: rng.Int63n(keyRange), Payload: int64(1_000_000 + i)})
	}
	return build, probe
}

func sortPairs(ps []Pair) {
	slices.SortFunc(ps, func(a, b Pair) int {
		if c := cmp.Compare(a.BuildPayload, b.BuildPayload); c != 0 {
			return c
		}
		return cmp.Compare(a.ProbePayload, b.ProbePayload)
	})
}

// runJoin deals the relations round-robin across ranks and returns the
// concatenated distributed matches plus rank 0's result record.
func runJoin(t *testing.T, ranks int, build, probe []Tuple) ([]Pair, Result) {
	t.Helper()
	matches := make([][]Pair, ranks)
	var res Result
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		var lb, lp []Tuple
		for i := c.Rank(); i < len(build); i += ranks {
			lb = append(lb, build[i])
		}
		for i := c.Rank(); i < len(probe); i += ranks {
			lp = append(lp, probe[i])
		}
		out, r, err := Join(c, lb, lp)
		if err != nil {
			return err
		}
		matches[c.Rank()] = out
		if c.Rank() == 0 {
			res = r
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var all []Pair
	for _, m := range matches {
		all = append(all, m...)
	}
	return all, res
}

func TestJoinMatchesSequential(t *testing.T) {
	build, probe := makeRelations(2000, 3000, 500, 1)
	want := Sequential(build, probe)
	sortPairs(want)
	for _, ranks := range []int{1, 2, 4, 7} {
		ranks := ranks
		t.Run(fmt.Sprintf("np=%d", ranks), func(t *testing.T) {
			got, res := runJoin(t, ranks, build, probe)
			sortPairs(got)
			if len(got) != len(want) {
				t.Fatalf("%d matches, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("pair %d: %+v != %+v", i, got[i], want[i])
				}
			}
			if res.Matches != int64(len(want)) {
				t.Fatalf("global count %d, want %d", res.Matches, len(want))
			}
		})
	}
}

func TestJoinKeysStayTogether(t *testing.T) {
	// Every match for one key must land on a single rank (partitioned
	// join invariant).
	build, probe := makeRelations(1000, 1000, 100, 2)
	const ranks = 4
	keysPerRank := make([]map[int64]bool, ranks)
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		var lb, lp []Tuple
		for i := c.Rank(); i < len(build); i += ranks {
			lb = append(lb, build[i])
		}
		for i := c.Rank(); i < len(probe); i += ranks {
			lp = append(lp, probe[i])
		}
		out, _, err := Join(c, lb, lp)
		if err != nil {
			return err
		}
		// Matches carry payloads; recover the key from the build side.
		keyOf := make(map[int64]int64)
		for _, tup := range build {
			keyOf[tup.Payload] = tup.Key
		}
		seen := make(map[int64]bool)
		for _, m := range out {
			seen[keyOf[m.BuildPayload]] = true
		}
		keysPerRank[c.Rank()] = seen // distinct index per rank: no race
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	owner := make(map[int64]int)
	for r, keys := range keysPerRank {
		for k := range keys {
			if prev, ok := owner[k]; ok && prev != r {
				t.Fatalf("key %d matched on both rank %d and rank %d", k, prev, r)
			}
			owner[k] = r
			if hashKey(k, ranks) != r {
				t.Fatalf("key %d matched on rank %d but hashes to %d", k, r, hashKey(k, ranks))
			}
		}
	}
	if len(owner) == 0 {
		t.Fatal("no matches produced")
	}
}

func TestEmptyRelations(t *testing.T) {
	got, res := runJoin(t, 3, nil, nil)
	if len(got) != 0 || res.Matches != 0 {
		t.Fatalf("empty join produced %d matches", len(got))
	}
	build, _ := makeRelations(100, 0, 50, 3)
	got, _ = runJoin(t, 3, build, nil)
	if len(got) != 0 {
		t.Fatalf("probe-less join produced matches")
	}
}

func TestDuplicateKeysCrossProduct(t *testing.T) {
	// 3 build tuples and 4 probe tuples with the same key: 12 matches.
	var build, probe []Tuple
	for i := 0; i < 3; i++ {
		build = append(build, Tuple{Key: 7, Payload: int64(i)})
	}
	for i := 0; i < 4; i++ {
		probe = append(probe, Tuple{Key: 7, Payload: int64(100 + i)})
	}
	got, res := runJoin(t, 4, build, probe)
	if len(got) != 12 || res.Matches != 12 {
		t.Fatalf("cross product %d, want 12", len(got))
	}
}

func TestSkewShowsInImbalance(t *testing.T) {
	// All build tuples share one key: one rank owns everything.
	var build []Tuple
	for i := 0; i < 4000; i++ {
		build = append(build, Tuple{Key: 42, Payload: int64(i)})
	}
	probe := []Tuple{{Key: 42, Payload: 1}}
	_, res := runJoin(t, 4, build, probe)
	if res.Imbalance < 3.9 {
		t.Fatalf("skewed build should give imbalance ≈4, got %v", res.Imbalance)
	}
	// Uniform keys stay balanced.
	build2, probe2 := makeRelations(8000, 100, 1<<40, 4)
	_, res2 := runJoin(t, 4, build2, probe2)
	if res2.Imbalance > 1.2 {
		t.Fatalf("uniform build imbalance %v", res2.Imbalance)
	}
}

func TestHashKeyDistribution(t *testing.T) {
	const p = 8
	counts := make([]int, p)
	for k := int64(0); k < 80_000; k++ {
		counts[hashKey(k, p)]++
	}
	for b, n := range counts {
		if n < 8000 || n > 12000 {
			t.Fatalf("bucket %d holds %d of 80000: poor distribution %v", b, n, counts)
		}
	}
}

func TestJoinUsesModulePrimitives(t *testing.T) {
	build, probe := makeRelations(500, 500, 100, 5)
	err := mpi.Run(3, func(c *mpi.Comm) error {
		var lb, lp []Tuple
		for i := c.Rank(); i < len(build); i += 3 {
			lb = append(lb, build[i])
		}
		for i := c.Rank(); i < len(probe); i += 3 {
			lp = append(lp, probe[i])
		}
		if _, _, err := Join(c, lb, lp); err != nil {
			return err
		}
		if c.Rank() == 0 {
			snap := c.Stats()
			if snap.TotalCalls(mpi.PrimIsend) == 0 || snap.TotalCalls(mpi.PrimReduce) == 0 {
				return fmt.Errorf("expected Isend + Reduce, got %v", snap.PrimitivesUsed())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// runJoinRMA is runJoin for the one-sided build path, parameterized
// over the transport (the RMA subsystem must behave identically on
// both) and the deposit strategy (chunk-reserved JoinRMA or the
// per-tuple baseline).
func runJoinRMA(t *testing.T, ranks int, build, probe []Tuple, tcp bool, join func(*mpi.Comm, []Tuple, []Tuple) ([]Pair, Result, error)) ([]Pair, Result) {
	t.Helper()
	matches := make([][]Pair, ranks)
	var res Result
	run := mpi.Run
	if tcp {
		run = mpi.RunTCP
	}
	err := run(ranks, func(c *mpi.Comm) error {
		var lb, lp []Tuple
		for i := c.Rank(); i < len(build); i += ranks {
			lb = append(lb, build[i])
		}
		for i := c.Rank(); i < len(probe); i += ranks {
			lp = append(lp, probe[i])
		}
		out, r, err := join(c, lb, lp)
		if err != nil {
			return err
		}
		matches[c.Rank()] = out
		if c.Rank() == 0 {
			res = r
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var all []Pair
	for _, m := range matches {
		all = append(all, m...)
	}
	return all, res
}

// TestJoinRMAMatchesTwoSided is the ISSUE's equivalence criterion: after
// canonical ordering, the RMA build phase must produce bit-identical
// join output to the two-sided path (and hence to the sequential
// reference), on both transports and with both deposit strategies.
func TestJoinRMAMatchesTwoSided(t *testing.T) {
	build, probe := makeRelations(1500, 2000, 400, 11)
	want := Sequential(build, probe)
	sortPairs(want)
	deposits := []struct {
		name string
		join func(*mpi.Comm, []Tuple, []Tuple) ([]Pair, Result, error)
	}{
		{"batched", JoinRMA},
		{"per-tuple", JoinRMAPerTuple},
	}
	for _, ranks := range []int{1, 2, 4} {
		for _, tcp := range []bool{false, true} {
			for _, dep := range deposits {
				name := fmt.Sprintf("np=%d/channel/%s", ranks, dep.name)
				if tcp {
					name = fmt.Sprintf("np=%d/tcp/%s", ranks, dep.name)
				}
				ranks, tcp, dep := ranks, tcp, dep
				t.Run(name, func(t *testing.T) {
					twoSided, _ := runJoin(t, ranks, build, probe)
					sortPairs(twoSided)
					got, res := runJoinRMA(t, ranks, build, probe, tcp, dep.join)
					sortPairs(got)
					if len(got) != len(want) {
						t.Fatalf("%d matches, want %d", len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("pair %d vs sequential: %+v != %+v", i, got[i], want[i])
						}
						if got[i] != twoSided[i] {
							t.Fatalf("pair %d vs two-sided: %+v != %+v", i, got[i], twoSided[i])
						}
					}
					if res.Matches != int64(len(want)) {
						t.Fatalf("global count %d, want %d", res.Matches, len(want))
					}
				})
			}
		}
	}
}

// TestJoinRMADuplicateKeys: both deposits must keep every duplicate —
// the open-addressed window by linear probing (not overwrite), the
// chunk-reserved window by counting duplicates into the reservation.
func TestJoinRMADuplicateKeys(t *testing.T) {
	var build, probe []Tuple
	for i := 0; i < 5; i++ {
		build = append(build, Tuple{Key: 7, Payload: int64(i)})
	}
	for i := 0; i < 3; i++ {
		probe = append(probe, Tuple{Key: 7, Payload: int64(100 + i)})
	}
	for _, dep := range []struct {
		name string
		join func(*mpi.Comm, []Tuple, []Tuple) ([]Pair, Result, error)
	}{
		{"batched", JoinRMA},
		{"per-tuple", JoinRMAPerTuple},
	} {
		got, res := runJoinRMA(t, 4, build, probe, false, dep.join)
		if len(got) != 15 || res.Matches != 15 {
			t.Fatalf("%s: cross product %d (global %d), want 15", dep.name, len(got), res.Matches)
		}
	}
}

// TestJoinRMAUsesOneSidedPrimitives pins the build phase to the RMA
// subsystem: the accounting must show window creation, CAS
// reservations, Puts and the fence. The chunk-reserved deposit must do
// it in O(ranks) operations — far fewer Puts than tuples — while the
// per-tuple baseline must still issue one Put per build tuple, so the
// two strategies stay honest about what the benchmark compares.
func TestJoinRMAUsesOneSidedPrimitives(t *testing.T) {
	build, probe := makeRelations(400, 400, 100, 12)
	err := mpi.Run(3, func(c *mpi.Comm) error {
		var lb, lp []Tuple
		for i := c.Rank(); i < len(build); i += 3 {
			lb = append(lb, build[i])
		}
		for i := c.Rank(); i < len(probe); i += 3 {
			lp = append(lp, probe[i])
		}
		if _, _, err := JoinRMA(c, lb, lp); err != nil {
			return err
		}
		if c.Rank() == 0 {
			snap := c.Stats()
			for _, p := range []mpi.Primitive{mpi.PrimRMAWinCreate, mpi.PrimRMACas, mpi.PrimRMAPut, mpi.PrimRMAFence, mpi.PrimRMAWinFree} {
				if snap.TotalCalls(p) == 0 {
					return fmt.Errorf("expected %v in accounting, got %v", p, snap.PrimitivesUsed())
				}
			}
			// Chunk-reserved: at most np Puts per rank (one per owner),
			// np^2 total — the whole point of the batched deposit.
			if puts := snap.TotalCalls(mpi.PrimRMAPut); puts > 9 {
				return fmt.Errorf("%d Puts from chunk-reserved deposit, want <= np^2 = 9", puts)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(3, func(c *mpi.Comm) error {
		var lb, lp []Tuple
		for i := c.Rank(); i < len(build); i += 3 {
			lb = append(lb, build[i])
		}
		for i := c.Rank(); i < len(probe); i += 3 {
			lp = append(lp, probe[i])
		}
		if _, _, err := JoinRMAPerTuple(c, lb, lp); err != nil {
			return err
		}
		if c.Rank() == 0 {
			snap := c.Stats()
			if snap.TotalCalls(mpi.PrimRMAPut) < int64(len(build)) {
				return fmt.Errorf("only %d Puts for %d build tuples", snap.TotalCalls(mpi.PrimRMAPut), len(build))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
