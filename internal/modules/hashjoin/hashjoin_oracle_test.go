package hashjoin

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"repro/internal/mpi"
)

// refLocalJoin is the map-and-append build and probe the distributed
// joins ran before the flat kernels, kept verbatim over flat streams
// (tuple i is s[2i], s[2i+1]) as the oracle: the kernels must return its
// output pair for pair, in its order.
func refLocalJoin(build, probe []int64) []Pair {
	table := make(map[int64][]int64, len(build)/2)
	for i := 0; i < len(build); i += 2 {
		table[build[i]] = append(table[build[i]], build[i+1])
	}
	var out []Pair
	for i := 0; i < len(probe); i += 2 {
		for _, bp := range table[probe[i]] {
			out = append(out, Pair{BuildPayload: bp, ProbePayload: probe[i+1]})
		}
	}
	return out
}

// flatJoin runs the same streams through buildTable and table.probe.
// The probe consumes its stream, and callers reuse theirs, so it probes
// with a clone.
func flatJoin(t testing.TB, build, probe []int64) []Pair {
	t.Helper()
	tbl, err := buildTable(len(build)/2, func(i int) (key, payload int64) {
		return build[2*i], build[2*i+1]
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl.probe(slices.Clone(probe))
}

// stream pairs each key with its index (offset by base) as the payload,
// so every tuple is distinguishable and order shows in the output.
func stream(keys []int64, base int64) []int64 {
	s := make([]int64, 0, 2*len(keys))
	for i, k := range keys {
		s = append(s, k, base+int64(i))
	}
	return s
}

// collidingKeys returns n distinct keys whose home slot in a table of
// the given size is slot 0, found by search.
func collidingKeys(n, slots int) []int64 {
	var keys []int64
	for k := int64(0); len(keys) < n; k++ {
		if hashSlot(k, slots) == 0 {
			keys = append(keys, k)
		}
	}
	return keys
}

func randomKeys(rng *rand.Rand, n int, keyRange int64) []int64 {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63n(keyRange)
	}
	return keys
}

func repeatKey(k int64, n int) []int64 {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = k
	}
	return keys
}

func TestFlatJoinOrderIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	extremes := []int64{math.MinInt64, math.MaxInt64, -1, 0, 1, math.MinInt64 + 1, math.MaxInt64 - 1, -1 << 32, 1 << 32}
	// 40 build tuples give a 128-slot table; all of these start at slot 0
	// and probe linearly through one cluster.
	oneSlot := collidingKeys(20, nextPow2(2*40))
	distinct := make([]int64, 3000)
	for i := range distinct {
		distinct[i] = int64(i) * 7919
	}
	for _, tc := range []struct {
		name         string
		build, probe []int64
	}{
		{"random", randomKeys(rng, 4000, 300), randomKeys(rng, 5000, 400)},
		{"random sparse", randomKeys(rng, 4000, 1<<40), randomKeys(rng, 4000, 1<<40)},
		{"all one key", repeatKey(7, 200), repeatKey(7, 150)},
		{"all distinct", distinct, append(slices.Clone(distinct[1000:]), distinct[:500]...)},
		{"empty build", nil, randomKeys(rng, 100, 10)},
		{"empty probe", randomKeys(rng, 100, 10), nil},
		{"both empty", nil, nil},
		{"no match", []int64{1, 2, 3}, []int64{4, 5, 6}},
		{"extreme keys", append(slices.Clone(extremes), extremes...), append([]int64{2, -2}, extremes...)},
		{"one slot", append(slices.Clone(oneSlot), oneSlot...), append(slices.Clone(oneSlot[5:]), collidingKeys(30, 128)[15:]...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build, probe := stream(tc.build, 0), stream(tc.probe, 1_000_000)
			want := refLocalJoin(build, probe)
			got := flatJoin(t, build, probe)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("flat kernels returned %d pairs, the map oracle %d, or in another order:\n got %v\nwant %v",
					len(got), len(want), clip(got), clip(want))
			}
		})
	}
}

func clip(ps []Pair) []Pair {
	if len(ps) > 24 {
		return ps[:24]
	}
	return ps
}

// TestBuildTableRejectsOversize: the table's offsets are 32-bit, so a
// build side that would overflow them is refused up front, before
// anything is allocated.
func TestBuildTableRejectsOversize(t *testing.T) {
	if strconv.IntSize == 32 {
		t.Skip("int cannot hold an oversize count")
	}
	oversize := int64(math.MaxInt32) + 1
	_, err := buildTable(int(oversize), func(int) (int64, int64) {
		t.Fatal("oversize build read a tuple")
		return 0, 0
	})
	if err == nil {
		t.Fatal("buildTable accepted 1<<31 tuples")
	}
}

// estimatorBits is how many bits distinctEstimate counts over for n
// build tuples: the largest power of two of the 32n in its scratch.
func estimatorBits(n int) int {
	return 32 << (bits.Len(uint(n)) - 1)
}

// sizedJoin builds the table over the build stream and checks what every
// size must keep: load <= 0.5, a slot array no larger than the
// tuple-sized nextPow2(2n), and the oracle's output pair for pair. It
// returns the slot count. The probe consumes its stream, so it probes
// with a clone.
func sizedJoin(t *testing.T, build, probe []int64) int {
	t.Helper()
	n := len(build) / 2
	tbl, err := buildTable(n, func(i int) (key, payload int64) {
		return build[2*i], build[2*i+1]
	})
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[int64]bool{}
	for i := 0; i < len(build); i += 2 {
		distinct[build[i]] = true
	}
	if slots := len(tbl.keys); 2*len(distinct) > slots || slots > nextPow2(2*n) {
		t.Fatalf("%d tuples over %d distinct keys got %d slots: want load <= 0.5 and at most nextPow2(2n) = %d",
			n, len(distinct), slots, nextPow2(2*n))
	}
	if got, want := tbl.probe(slices.Clone(probe)), refLocalJoin(build, probe); !reflect.DeepEqual(got, want) {
		t.Fatalf("%d slots: %d pairs, the map oracle %d, or in another order", len(tbl.keys), len(got), len(want))
	}
	return len(tbl.keys)
}

// pairedKeys returns 2·bitsWanted distinct keys, two on each of
// bitsWanted of the estimator's m bits, found by search: linear counting
// sees half of them.
func pairedKeys(bitsWanted, m int) []int64 {
	onBit := map[int][]int64{}
	var keys []int64
	for k := int64(0); len(keys) < 2*bitsWanted; k++ {
		b := hashSlot(k, m)
		if onBit[b] = append(onBit[b], k); len(onBit[b]) == 2 {
			keys = append(keys, onBit[b]...)
		}
	}
	return keys
}

// TestTableSizedByDistinctKeys pins the table's size to its distinct
// keys, not its tuples, without timing anything.
func TestTableSizedByDistinctKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	probe := stream(randomKeys(rng, 5000, 15_000), 1_000_000)

	// join-rma's shape: one rank's 75k build tuples over ~15k keys. A
	// table sized by tuples has 262,144 slots.
	if slots := sizedJoin(t, stream(randomKeys(rng, 75_000, 15_000), 0), probe); slots > 65_536 {
		t.Fatalf("75k tuples over 15k keys: %d slots, want <= 65,536", slots)
	}

	// All distinct: at most the tuple-sized table, at sizes where 2.25n
	// rounds past nextPow2(2n) (1,000: 4,096 against 2,048) and where it
	// does not.
	for _, n := range []int{1, 2, 3, 100, 1000, 75_000} {
		distinct := make([]int64, n)
		for i := range distinct {
			distinct[i] = int64(i) * 7919
		}
		sizedJoin(t, stream(distinct, 0), probe)
	}

	// Linear counting's logarithm corrects for keys that share a bit:
	// 920 keys on 1,100 tuples set 903 bits and read as ~916, and 2.25 ×
	// 916 rounds up to 4,096 slots where 2.25 × 903 would give 2,048.
	shared := make([]int64, 1100)
	for i := range shared {
		shared[i] = int64(i%920) * 7919
	}
	if slots := sizedJoin(t, stream(shared, 0), probe); slots != 4096 {
		t.Fatalf("920 keys on 1,100 tuples: %d slots, want 4,096", slots)
	}

	// The margin and the half-load boundary, on 200 tuples
	// (nextPow2(2n) = 512). k pairs of keys, two to an estimator bit,
	// read as ~k distinct, so the table gets nextPow2(2.25k) slots:
	// 62 keys read as 31 get 128 (2 × 31 would round to 64 and overflow);
	// 64 keys read as 32 fill 128 slots to exactly one half, which
	// stays; a 65th key is one claim too many, and the build falls back
	// to the tuple-sized table.
	for _, tc := range []struct {
		pairs int
		extra bool
		slots int
	}{{31, false, 128}, {32, false, 128}, {32, true, 512}} {
		keys := pairedKeys(tc.pairs, estimatorBits(200))
		build := make([]int64, 0, 200)
		for len(build) < 200 {
			build = append(build, keys...)
		}
		build = build[:200]
		if tc.extra {
			build[199] = slices.Max(keys) + 1
		}
		if slots := sizedJoin(t, stream(build, 0), stream(keys, 1_000_000)); slots != tc.slots {
			t.Fatalf("%d keys two to a bit (and another: %v): %d slots, want %d", 2*tc.pairs, tc.extra, slots, tc.slots)
		}
	}
}

// TestTableFallsBackOnLowEstimate: 300 keys found by search, all on the
// estimator's bit 0, read as one distinct key, so the sized table (4
// slots) overflows; the build must fall back to the tuple-sized table
// and still join exactly.
func TestTableFallsBackOnLowEstimate(t *testing.T) {
	const n = 1000
	keys := collidingKeys(300, estimatorBits(n))
	build := make([]int64, n)
	for i := range build {
		build[i] = keys[i%len(keys)]
	}
	if est := distinctEstimate(make([]uint32, n), func(i int) (int64, int64) { return build[i], 0 }); est > 2 {
		t.Fatalf("300 keys on one estimator bit read as %.1f distinct", est)
	}
	probe := append(slices.Clone(keys[100:]), randomKeys(rand.New(rand.NewSource(5)), 200, 1<<40)...)
	if slots := sizedJoin(t, stream(build, 0), stream(probe, 1_000_000)); slots != nextPow2(2*n) {
		t.Fatalf("low estimate: %d slots, want the fallback's %d", slots, nextPow2(2*n))
	}
}

// fallbackSeed is a FuzzFlatTable input whose eight build keys are three
// distinct ones on one estimator bit, found by search: they read as one
// distinct key, overflow the 4-slot table and take the fallback.
func fallbackSeed() []byte {
	onBit := map[int][]byte{}
	for b := 0; b < 256; b++ {
		bit := hashSlot(int64(int8(b)), estimatorBits(8))
		if onBit[bit] = append(onBit[bit], byte(b)); len(onBit[bit]) == 3 {
			k := onBit[bit]
			return []byte{8, k[0], k[1], k[2], k[0], k[1], k[2], k[0], k[1], k[2], 1, k[1]}
		}
	}
	panic("no three one-byte keys share an estimator bit")
}

// FuzzFlatTable drives the flat kernels against the map oracle on keys
// decoded from a byte string: the first byte splits the rest into build
// and probe, and each byte is a signed one-byte key, so duplicates,
// negatives and probe misses are all dense.
func FuzzFlatTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{3, 7, 7, 7, 7, 7, 7})
	f.Add([]byte{128, 1, 2, 3, 4, 5, 6, 7, 8, 255, 254, 253, 1, 2, 3})
	f.Add([]byte("4the quick brown fox jumps over the lazy dog"))
	f.Add(fallbackSeed())
	f.Fuzz(func(t *testing.T, data []byte) {
		var buildKeys, probeKeys []int64
		if len(data) > 0 {
			keys := make([]int64, len(data)-1)
			for i, b := range data[1:] {
				keys[i] = int64(int8(b))
			}
			split := int(data[0]) % (len(keys) + 1)
			buildKeys, probeKeys = keys[:split], keys[split:]
		}
		build, probe := stream(buildKeys, 0), stream(probeKeys, 1_000_000)
		if got, want := flatJoin(t, build, probe), refLocalJoin(build, probe); !reflect.DeepEqual(got, want) {
			t.Fatalf("build keys %v, probe keys %v:\n got %v\nwant %v", buildKeys, probeKeys, got, want)
		}
	})
}

// The distributed joins must return, on every rank, exactly what the
// oracle returns when fed the streams that rank joined. A rank's stream
// is made of one block per source rank — the source's tuples this rank
// owns, in the source's input order — and only the order of the blocks
// depends on timing: exchange puts the rank's own block first and the
// others in arrival order, and JoinRMA's window holds all the build
// blocks in the order the reservations won. So the test enumerates every
// block order and requires the rank's unsorted output to equal the
// oracle's for one of them.

// blocksFor returns, per source rank, the flat stream of the source's
// tuples that rank r owns.
func blocksFor(locals [][]Tuple, r int) [][]int64 {
	blocks := make([][]int64, len(locals))
	for src, tuples := range locals {
		for _, t := range tuples {
			if hashKey(t.Key, len(locals)) == r {
				blocks[src] = append(blocks[src], t.Key, t.Payload)
			}
		}
	}
	return blocks
}

// streams returns every concatenation of the blocks in which block
// first leads (first < 0: any block may lead).
func streams(blocks [][]int64, first int) [][]int64 {
	var rest []int
	var head []int64
	for i := range blocks {
		if i == first {
			head = blocks[i]
		} else {
			rest = append(rest, i)
		}
	}
	var out [][]int64
	var walk func(prefix []int64, left []int)
	walk = func(prefix []int64, left []int) {
		if len(left) == 0 {
			out = append(out, prefix)
			return
		}
		for i, b := range left {
			others := append(slices.Clone(left[:i]), left[i+1:]...)
			walk(append(slices.Clone(prefix), blocks[b]...), others)
		}
	}
	walk(head, rest)
	return out
}

func TestJoinOrderIdentity(t *testing.T) {
	// ~10 build tuples per key spread over the source ranks, so the
	// block order shows inside every run of matches.
	build, probe := makeRelations(600, 800, 60, 31)
	for _, tc := range []struct {
		name string
		join func(*mpi.Comm, []Tuple, []Tuple) ([]Pair, Result, error)
		// ownBuildFirst: the rank's own build block leads its build
		// stream (the two-sided exchange); otherwise any order (the
		// window's reservation order).
		ownBuildFirst bool
	}{
		{"Join", Join, true},
		{"JoinRMA", JoinRMA, false},
	} {
		for _, ranks := range []int{1, 2, 4} {
			for _, transport := range []struct {
				name string
				run  func(int, func(*mpi.Comm) error, ...mpi.Option) error
			}{{"channel", mpi.Run}, {"tcp", mpi.RunTCP}} {
				t.Run(fmt.Sprintf("%s/np=%d/%s", tc.name, ranks, transport.name), func(t *testing.T) {
					lb, lp := make([][]Tuple, ranks), make([][]Tuple, ranks)
					for i, tup := range build {
						lb[i%ranks] = append(lb[i%ranks], tup)
					}
					for i, tup := range probe {
						lp[i%ranks] = append(lp[i%ranks], tup)
					}
					outs := make([][]Pair, ranks)
					err := transport.run(ranks, func(c *mpi.Comm) error {
						out, _, err := tc.join(c, lb[c.Rank()], lp[c.Rank()])
						outs[c.Rank()] = out
						return err
					})
					if err != nil {
						t.Fatal(err)
					}
					for r, got := range outs {
						if len(got) == 0 {
							t.Fatalf("rank %d matched nothing: the relations do not exercise it", r)
						}
						lead := -1
						if tc.ownBuildFirst {
							lead = r
						}
						found := false
						for _, b := range streams(blocksFor(lb, r), lead) {
							for _, p := range streams(blocksFor(lp, r), r) {
								found = found || slices.Equal(got, refLocalJoin(b, p))
							}
						}
						if !found {
							t.Fatalf("rank %d: %d pairs that no block order of its streams gives the map oracle; first %v", r, len(got), clip(got))
						}
					}
				})
			}
		}
	}
}
