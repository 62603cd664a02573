package rtree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/data"
)

func bruteForce(pts data.Points, q data.Rect) []int {
	var out []int
	for i := 0; i < pts.N(); i++ {
		if q.Contains(pts.At(i)) {
			out = append(out, i)
		}
	}
	return out
}

func sortedEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]int(nil), a...)
	bs := append([]int(nil), b...)
	sort.Ints(as)
	sort.Ints(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 16); err == nil {
		t.Fatal("zero dim accepted")
	}
	if _, err := New(2, 3); err == nil {
		t.Fatal("tiny fanout accepted")
	}
}

func TestInsertValidation(t *testing.T) {
	tr, _ := New(2, 8)
	if err := tr.InsertPoint([]float64{1}, 0); err == nil {
		t.Fatal("wrong-dimension point accepted")
	}
	if err := tr.Insert(data.Rect{Min: []float64{1, 1}, Max: []float64{0, 0}}, 0); err == nil {
		t.Fatal("inverted rect accepted")
	}
}

func TestSearchMatchesBruteForce(t *testing.T) {
	pts := data.UniformPoints(2000, 2, 0, 100, 1)
	tr, err := Bulk(pts, DefaultMaxEntries)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	queries := data.UniformRects(200, 2, 0, 100, 15, 2)
	for qi, q := range queries {
		got := tr.Search(q, nil)
		want := bruteForce(pts, q)
		if !sortedEqual(got, want) {
			t.Fatalf("query %d: got %d results, want %d", qi, len(got), len(want))
		}
	}
}

func TestSearchEmptyTree(t *testing.T) {
	tr, _ := New(2, 8)
	if got := tr.Search(data.Rect{Min: []float64{0, 0}, Max: []float64{1, 1}}, nil); len(got) != 0 {
		t.Fatalf("empty tree returned %v", got)
	}
}

func TestSearchAppendsBehaviour(t *testing.T) {
	pts := data.UniformPoints(100, 2, 0, 1, 3)
	tr, _ := Bulk(pts, 8)
	everything := data.Rect{Min: []float64{0, 0}, Max: []float64{1, 1}}
	prefix := []int{-1}
	got := tr.Search(everything, prefix)
	if got[0] != -1 || len(got) != 101 {
		t.Fatalf("append contract broken: len=%d first=%d", len(got), got[0])
	}
}

func TestInvariantsAfterManyInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, fanout := range []int{4, 8, 16} {
		tr, err := New(3, fanout)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3000; i++ {
			pt := []float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
			if err := tr.InsertPoint(pt, i); err != nil {
				t.Fatal(err)
			}
			if i%500 == 0 {
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("fanout %d after %d inserts: %v", fanout, i+1, err)
				}
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("fanout %d final: %v", fanout, err)
		}
		if tr.height() < 2 {
			t.Fatalf("3000 points produced height %d", tr.height())
		}
	}
}

func TestClusteredDataMatchesBruteForce(t *testing.T) {
	// Clustered data stresses the quadratic split differently from
	// uniform data.
	pts, _ := data.GaussianMixture(1500, 2, 5, 2.0, 100, 7)
	tr, err := Bulk(pts, DefaultMaxEntries)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range data.UniformRects(100, 2, 0, 100, 20, 8) {
		if !sortedEqual(tr.Search(q, nil), bruteForce(pts, q)) {
			t.Fatal("clustered search mismatch")
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicatePoints(t *testing.T) {
	tr, _ := New(2, 4)
	for i := 0; i < 100; i++ {
		if err := tr.InsertPoint([]float64{5, 5}, i); err != nil {
			t.Fatal(err)
		}
	}
	got := tr.Search(data.PointRect([]float64{5, 5}), nil)
	if len(got) != 100 {
		t.Fatalf("duplicate point search returned %d of 100", len(got))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRectItems(t *testing.T) {
	tr, _ := New(2, 8)
	boxes := []data.Rect{
		{Min: []float64{0, 0}, Max: []float64{2, 2}},
		{Min: []float64{5, 5}, Max: []float64{6, 8}},
		{Min: []float64{1, 1}, Max: []float64{5.5, 5.5}},
	}
	for i, b := range boxes {
		if err := tr.Insert(b, i); err != nil {
			t.Fatal(err)
		}
	}
	got := tr.Search(data.Rect{Min: []float64{5.4, 5.4}, Max: []float64{5.6, 5.6}}, nil)
	if !sortedEqual(got, []int{1, 2}) {
		t.Fatalf("rect query got %v", got)
	}
}

func TestStatsAccumulateAndReset(t *testing.T) {
	pts := data.UniformPoints(1000, 2, 0, 10, 9)
	tr, _ := Bulk(pts, 8)
	tr.resetStats()
	q := data.Rect{Min: []float64{2, 2}, Max: []float64{3, 3}}
	n := len(tr.Search(q, nil))
	st := tr.Stats()
	if st.NodesVisited == 0 || st.EntriesTested == 0 {
		t.Fatalf("stats empty after search: %+v", st)
	}
	if int(st.Results) != n {
		t.Fatalf("stats results %d != returned %d", st.Results, n)
	}
	// The index must prune: visiting far fewer entries than brute force.
	if st.EntriesTested >= 1000 {
		t.Fatalf("no pruning: %d entries tested of 1000 points", st.EntriesTested)
	}
	tr.resetStats()
	if tr.Stats() != (Stats{}) {
		t.Fatal("reset failed")
	}
}

func TestHeightGrowsLogarithmically(t *testing.T) {
	pts := data.UniformPoints(5000, 2, 0, 1, 21)
	tr, _ := Bulk(pts, 16)
	h := tr.height()
	if h < 3 || h > 10 {
		t.Fatalf("implausible height %d for 5000 points at fanout 16", h)
	}
}

func TestBulkSTRMatchesBruteForce(t *testing.T) {
	pts := data.UniformPoints(5000, 2, 0, 100, 31)
	tr, err := BulkSTR(pts, DefaultMaxEntries)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 5000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, q := range data.UniformRects(200, 2, 0, 100, 10, 32) {
		if !sortedEqual(tr.Search(q, nil), bruteForce(pts, q)) {
			t.Fatal("STR search mismatch")
		}
	}
}

func TestBulkSTRSmallAndEmpty(t *testing.T) {
	empty, err := BulkSTR(data.Points{Dim: 2}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := empty.Search(data.Rect{Min: []float64{0, 0}, Max: []float64{1, 1}}, nil); len(got) != 0 {
		t.Fatalf("empty STR tree returned %v", got)
	}
	tiny := data.UniformPoints(3, 2, 0, 1, 33)
	tr, err := BulkSTR(tiny, 8)
	if err != nil {
		t.Fatal(err)
	}
	all := tr.Search(data.Rect{Min: []float64{0, 0}, Max: []float64{1, 1}}, nil)
	if len(all) != 3 {
		t.Fatalf("tiny STR tree returned %d of 3", len(all))
	}
}

func TestBulkSTRRejectsHighDim(t *testing.T) {
	if _, err := BulkSTR(data.UniformPoints(10, 3, 0, 1, 1), 8); err == nil {
		t.Fatal("3-d STR accepted")
	}
}

func TestBulkSTRTighterOrEqualSearch(t *testing.T) {
	// STR packing produces tight, non-overlapping nodes: a selective
	// query should touch no more entries than the insertion-built tree.
	pts := data.UniformPoints(20_000, 2, 0, 100, 34)
	ins, err := Bulk(pts, DefaultMaxEntries)
	if err != nil {
		t.Fatal(err)
	}
	str, err := BulkSTR(pts, DefaultMaxEntries)
	if err != nil {
		t.Fatal(err)
	}
	q := data.Rect{Min: []float64{40, 40}, Max: []float64{42, 42}}
	ins.resetStats()
	str.resetStats()
	a := ins.Search(q, nil)
	b := str.Search(q, nil)
	if !sortedEqual(a, b) {
		t.Fatal("results differ")
	}
	if str.Stats().EntriesTested > ins.Stats().EntriesTested*2 {
		t.Fatalf("STR tested %d entries vs insertion %d", str.Stats().EntriesTested, ins.Stats().EntriesTested)
	}
}

// resetStats clears the search statistics.
func (t *Tree) resetStats() { t.stats = Stats{} }

// height returns the number of levels in the tree (1 for a lone leaf).
func (t *Tree) height() int {
	h := 1
	for n := t.root; !n.leaf; n = n.entries[0].child {
		h++
	}
	return h
}

// CheckInvariants validates structural invariants: bounding boxes cover
// children, occupancy bounds hold (root exempt), and all leaves are at the
// same depth. Used by property tests.
func (t *Tree) CheckInvariants() error {
	depths := make(map[int]bool)
	var walk func(n *node, depth int, isRoot bool) error
	walk = func(n *node, depth int, isRoot bool) error {
		if !isRoot && !t.packed && (len(n.entries) < t.min || len(n.entries) > t.max) {
			return fmt.Errorf("rtree: node occupancy %d outside [%d, %d]", len(n.entries), t.min, t.max)
		}
		if len(n.entries) > t.max {
			return fmt.Errorf("rtree: node overflow: %d > %d", len(n.entries), t.max)
		}
		if n.leaf {
			depths[depth] = true
			return nil
		}
		for _, e := range n.entries {
			box := boundingBox(e.child)
			for d := 0; d < t.dim; d++ {
				if box.Min[d] < e.rect.Min[d]-1e-12 || box.Max[d] > e.rect.Max[d]+1e-12 {
					return fmt.Errorf("rtree: entry box does not cover child on axis %d", d)
				}
			}
			if err := walk(e.child, depth+1, false); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 0, true); err != nil {
		return err
	}
	if len(depths) > 1 {
		return fmt.Errorf("rtree: leaves at %d distinct depths", len(depths))
	}
	return nil
}
