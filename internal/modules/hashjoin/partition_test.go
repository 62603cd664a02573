package hashjoin

import (
	"fmt"
	"testing"

	"repro/internal/mpi"
)

// TestPartitionExact pins the count-then-fill partition: every part is
// exactly as long as the histogram says, clipped so it cannot grow into
// its neighbour, holds its tuples in input order, and together the parts
// are the input.
func TestPartitionExact(t *testing.T) {
	build, _ := makeRelations(5000, 0, 700, 41)
	for _, p := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			parts, counts, _ := partition(build, p, nil)
			if len(parts) != p || len(counts) != p {
				t.Fatalf("%d parts, %d counts, want %d", len(parts), len(counts), p)
			}
			want := make([][]Tuple, p)
			for _, tup := range build {
				dst := hashKey(tup.Key, p)
				want[dst] = append(want[dst], tup)
			}
			total := 0
			for dst, part := range parts {
				if counts[dst] != int64(len(want[dst])) {
					t.Fatalf("counts[%d] = %d, want %d", dst, counts[dst], len(want[dst]))
				}
				if len(part) != len(want[dst])*tupleBytes {
					t.Fatalf("part %d is %d bytes for %d tuples", dst, len(part), len(want[dst]))
				}
				if cap(part) != len(part) {
					t.Fatalf("part %d has %d spare bytes: a scatter past the histogram would land in part %d", dst, cap(part)-len(part), dst+1)
				}
				for i, w := range want[dst] {
					if k, pl := tupleAt(part[i*tupleBytes:]); k != w.Key || pl != w.Payload {
						t.Fatalf("part %d tuple %d is {%d %d}, want %+v: not in input order", dst, i, k, pl, w)
					}
				}
				total += len(want[dst])
			}
			if total != len(build) {
				t.Fatalf("parts hold %d tuples of %d", total, len(build))
			}
		})
	}
	parts, counts, _ := partition(nil, 3, nil)
	for dst := range parts {
		if len(parts[dst]) != 0 || counts[dst] != 0 {
			t.Fatalf("empty input gave part %d %d bytes, count %d", dst, len(parts[dst]), counts[dst])
		}
	}
}

// TestExchangeSkewFallsBack: every key is owned by one rank, so that
// rank receives four times what it sends, the stream sized from the
// outgoing total cannot hold the incoming blocks, and they take the
// append path. The stream must still be complete and the join right.
func TestExchangeSkewFallsBack(t *testing.T) {
	const ranks, perRank = 4, 500
	var keys []int64
	for k := int64(0); len(keys) < 50; k++ {
		if hashKey(k, ranks) == 2 {
			keys = append(keys, k)
		}
	}
	var build, probe []Tuple
	for i := 0; i < ranks*perRank; i++ {
		build = append(build, Tuple{Key: keys[i%len(keys)], Payload: int64(i)})
		probe = append(probe, Tuple{Key: keys[(i*7)%len(keys)], Payload: int64(1_000_000 + i)})
	}

	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		var lb []Tuple
		for i := c.Rank(); i < len(build); i += ranks {
			lb = append(lb, build[i])
		}
		flat, _, err := exchange(c, lb, tagBuild, nil, nil)
		if err != nil {
			return err
		}
		want := 0
		if c.Rank() == 2 {
			want = 2 * len(build) // far past the 2*(perRank+perRank/8) it was sized for
		}
		if len(flat) != want {
			return fmt.Errorf("rank %d received a stream of %d words, want %d", c.Rank(), len(flat), want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	want := Sequential(build, probe)
	sortPairs(want)
	for _, join := range []func(*mpi.Comm, []Tuple, []Tuple) ([]Pair, Result, error){Join, JoinRMA} {
		got, res := runJoinRMA(t, ranks, build, probe, false, join)
		sortPairs(got)
		if len(got) != len(want) || res.Matches != int64(len(want)) {
			t.Fatalf("%d matches (global %d), want %d", len(got), res.Matches, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("pair %d: %+v != %+v", i, got[i], want[i])
			}
		}
	}
}
