// Package rtree implements Guttman's R-tree with quadratic splitting, the
// spatial index "supplied" to students in Module 4's second activity. The
// tree indexes points (degenerate rectangles) or boxes, answers
// axis-aligned range queries, and counts node visits so the module can
// demonstrate the memory-access/compute trade-off that makes the indexed
// search memory-bound while brute force is compute-bound.
package rtree

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/data"
)

// DefaultMaxEntries is Guttman's M for nodes; minimum occupancy is M/2.
const DefaultMaxEntries = 16

// Tree is an R-tree over items with integer identifiers.
type Tree struct {
	dim  int
	max  int
	min  int
	root *node
	size int

	// path is scratch storage for the root-to-leaf descent of the most
	// recent insertion (parents of the insertion leaf, root first).
	path []*node

	// packed marks STR-built trees, whose tail nodes may legitimately
	// sit below Guttman's minimum occupancy.
	packed bool

	stats Stats
}

// Stats counts work performed by searches since the tree was built — the
// module's stand-in for hardware memory-access counters.
type Stats struct {
	NodesVisited  int64 // internal + leaf nodes touched
	EntriesTested int64 // bounding-box overlap tests
	Results       int64 // matches produced
}

type entry struct {
	rect  data.Rect
	child *node // nil for leaf entries
	id    int   // valid for leaf entries
}

type node struct {
	leaf    bool
	entries []entry
}

// New creates an R-tree for dim-dimensional data with the given maximum
// node fan-out (use DefaultMaxEntries when in doubt; minimum 4).
func New(dim, maxEntries int) (*Tree, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("rtree: dimension %d must be positive", dim)
	}
	if maxEntries < 4 {
		return nil, fmt.Errorf("rtree: max entries %d must be at least 4", maxEntries)
	}
	return &Tree{
		dim:  dim,
		max:  maxEntries,
		min:  maxEntries / 2,
		root: &node{leaf: true},
	}, nil
}

// Bulk builds a tree from a point set by repeated insertion — the
// incremental construction Guttman describes and the module supplies.
func Bulk(pts data.Points, maxEntries int) (*Tree, error) {
	t, err := New(pts.Dim, maxEntries)
	if err != nil {
		return nil, err
	}
	for i := 0; i < pts.N(); i++ {
		if err := t.InsertPoint(pts.At(i), i); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// BulkSTR builds a tree with Sort-Tile-Recursive packing (Leutenegger et
// al.): points are sorted into a grid of √s × √s slabs (s = leaves
// needed) so every node is full and spatially tight. It is the
// "improve the algorithm beyond the module" answer to Bulk's slow
// insertion path — same queries, far cheaper construction. Only 2-d data
// is supported (the module's datasets are 2-d).
func BulkSTR(pts data.Points, maxEntries int) (*Tree, error) {
	if pts.Dim != 2 {
		return nil, fmt.Errorf("rtree: STR packing supports 2-d points, got %d-d", pts.Dim)
	}
	t, err := New(pts.Dim, maxEntries)
	if err != nil {
		return nil, err
	}
	n := pts.N()
	if n == 0 {
		return t, nil
	}
	// Leaf level: sort by x, slice into vertical slabs, sort each slab
	// by y, pack runs of maxEntries points per leaf.
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool { return pts.At(ids[a])[0] < pts.At(ids[b])[0] })
	leavesNeeded := (n + maxEntries - 1) / maxEntries
	slabs := int(math.Ceil(math.Sqrt(float64(leavesNeeded))))
	perSlab := (n + slabs - 1) / slabs

	var level []entry // entries pointing at the nodes of the level being built
	for s := 0; s < n; s += perSlab {
		hi := min(s+perSlab, n)
		slab := ids[s:hi]
		sort.Slice(slab, func(a, b int) bool { return pts.At(slab[a])[1] < pts.At(slab[b])[1] })
		for l := 0; l < len(slab); l += maxEntries {
			lh := min(l+maxEntries, len(slab))
			leaf := &node{leaf: true}
			for _, id := range slab[l:lh] {
				leaf.entries = append(leaf.entries, entry{rect: data.PointRect(pts.At(id)), id: id})
			}
			level = append(level, entry{rect: boundingBox(leaf), child: leaf})
		}
	}
	t.size = n
	t.packed = true
	// Pack upper levels until one node remains.
	for len(level) > 1 {
		var next []entry
		for i := 0; i < len(level); i += maxEntries {
			hi := min(i+maxEntries, len(level))
			n := &node{leaf: false, entries: append([]entry(nil), level[i:hi]...)}
			next = append(next, entry{rect: boundingBox(n), child: n})
		}
		level = next
	}
	t.root = level[0].child
	return t, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Len returns the number of indexed items.
func (t *Tree) Len() int { return t.size }

// Stats returns the cumulative search statistics.
func (t *Tree) Stats() Stats { return t.stats }

// InsertPoint indexes a point with the given id.
func (t *Tree) InsertPoint(pt []float64, id int) error {
	return t.Insert(data.PointRect(pt), id)
}

// Insert indexes a rectangle with the given id.
func (t *Tree) Insert(r data.Rect, id int) error {
	if len(r.Min) != t.dim || len(r.Max) != t.dim {
		return fmt.Errorf("rtree: rect dimension %d, tree dimension %d", len(r.Min), t.dim)
	}
	for d := 0; d < t.dim; d++ {
		if r.Max[d] < r.Min[d] {
			return fmt.Errorf("rtree: inverted rect on axis %d", d)
		}
	}
	leaf := t.chooseLeaf(t.root, r)
	leaf.entries = append(leaf.entries, entry{rect: r.Clone(), id: id})
	t.size++
	t.adjustAfterInsert(leaf)
	return nil
}

// chooseLeaf descends from n to the leaf whose bounding box needs least
// enlargement to absorb r (ties by smaller area), recording the path.
func (t *Tree) chooseLeaf(n *node, r data.Rect) *node {
	t.path = t.path[:0]
	for !n.leaf {
		t.path = append(t.path, n)
		best := 0
		bestEnlarge := math.Inf(1)
		bestArea := math.Inf(1)
		for i := range n.entries {
			e := &n.entries[i]
			area := e.rect.Area()
			enlarged := data.EnlargedArea(e.rect, r) - area
			if enlarged < bestEnlarge || (enlarged == bestEnlarge && area < bestArea) {
				best, bestEnlarge, bestArea = i, enlarged, area
			}
		}
		chosen := &n.entries[best]
		chosen.rect.ExpandToInclude(r)
		n = chosen.child
	}
	return n
}

// adjustAfterInsert splits overflowing nodes up the recorded path.
func (t *Tree) adjustAfterInsert(leaf *node) {
	n := leaf
	for level := len(t.path); ; level-- {
		if len(n.entries) <= t.max {
			break
		}
		left, right := t.splitNode(n)
		if level == 0 {
			// n was the root: grow the tree.
			t.root = &node{
				leaf: false,
				entries: []entry{
					{rect: boundingBox(left), child: left},
					{rect: boundingBox(right), child: right},
				},
			}
			return
		}
		parent := t.path[level-1]
		// Replace the parent entry pointing at n with the two halves.
		for i := range parent.entries {
			if parent.entries[i].child == n {
				parent.entries[i] = entry{rect: boundingBox(left), child: left}
				break
			}
		}
		parent.entries = append(parent.entries, entry{rect: boundingBox(right), child: right})
		n = parent
	}
}

// splitNode performs Guttman's quadratic split, redistributing n's entries
// into two nodes. n is reused as the left node.
func (t *Tree) splitNode(n *node) (*node, *node) {
	entries := n.entries
	// Pick seeds: the pair wasting the most area if grouped.
	var s1, s2 int
	worst := math.Inf(-1)
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			d := data.EnlargedArea(entries[i].rect, entries[j].rect) -
				entries[i].rect.Area() - entries[j].rect.Area()
			if d > worst {
				worst, s1, s2 = d, i, j
			}
		}
	}
	left := &node{leaf: n.leaf, entries: []entry{entries[s1]}}
	right := &node{leaf: n.leaf, entries: []entry{entries[s2]}}
	lbox, rbox := entries[s1].rect.Clone(), entries[s2].rect.Clone()

	rest := make([]entry, 0, len(entries)-2)
	for i := range entries {
		if i != s1 && i != s2 {
			rest = append(rest, entries[i])
		}
	}
	for len(rest) > 0 {
		// Force assignment when one group must take all remaining
		// entries to reach minimum occupancy.
		if len(left.entries)+len(rest) == t.min {
			for _, e := range rest {
				left.entries = append(left.entries, e)
				lbox.ExpandToInclude(e.rect)
			}
			break
		}
		if len(right.entries)+len(rest) == t.min {
			for _, e := range rest {
				right.entries = append(right.entries, e)
				rbox.ExpandToInclude(e.rect)
			}
			break
		}
		// Pick the entry with the greatest preference for one group.
		bestIdx, bestDiff := 0, -1.0
		var bestToLeft bool
		lArea, rArea := lbox.Area(), rbox.Area()
		for i, e := range rest {
			dl := data.EnlargedArea(lbox, e.rect) - lArea
			dr := data.EnlargedArea(rbox, e.rect) - rArea
			diff := math.Abs(dl - dr)
			if diff > bestDiff {
				bestIdx, bestDiff, bestToLeft = i, diff, dl < dr
			}
		}
		e := rest[bestIdx]
		rest = append(rest[:bestIdx], rest[bestIdx+1:]...)
		if bestToLeft {
			left.entries = append(left.entries, e)
			lbox.ExpandToInclude(e.rect)
		} else {
			right.entries = append(right.entries, e)
			rbox.ExpandToInclude(e.rect)
		}
	}
	*n = *left
	return n, right
}

// boundingBox computes the minimal rectangle covering all entries of n.
func boundingBox(n *node) data.Rect {
	box := n.entries[0].rect.Clone()
	for _, e := range n.entries[1:] {
		box.ExpandToInclude(e.rect)
	}
	return box
}

// Search appends to dst the ids of all items intersecting q and returns
// the extended slice, counting visited nodes in Stats.
func (t *Tree) Search(q data.Rect, dst []int) []int {
	return t.search(t.root, q, dst)
}

func (t *Tree) search(n *node, q data.Rect, dst []int) []int {
	t.stats.NodesVisited++
	for i := range n.entries {
		e := &n.entries[i]
		t.stats.EntriesTested++
		if !q.Intersects(e.rect) {
			continue
		}
		if n.leaf {
			t.stats.Results++
			dst = append(dst, e.id)
		} else {
			dst = t.search(e.child, q, dst)
		}
	}
	return dst
}
