// Package rangequery implements Module 4 of the pedagogic modules: range
// queries over a point dataset. Activity 1 is the brute-force scan (no
// index, compute-bound, scales well); activity 2 uses the supplied R-tree
// (far more efficient, memory-bound, scales worse); activity 3 explores
// resource allocation — here modeled with the roofline machine — showing
// that p ranks across 2 nodes beat p ranks on 1 node for the memory-bound
// indexed search (learning outcomes 4, 8, 10–15).
package rangequery

import (
	"fmt"
	"math"
	"time"

	"repro/internal/data"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/rtree"
)

// Method selects the search implementation.
type Method int

const (
	// BruteForce tests every point against every query.
	BruteForce Method = iota
	// RTree prunes with the Guttman R-tree supplied by the module.
	RTree
	// RTreeSTR is the bulk-packed R-tree (outcome 15: improving the
	// supplied index's construction).
	RTreeSTR
)

// String names the method for reports.
func (m Method) String() string {
	switch m {
	case BruteForce:
		return "brute-force"
	case RTree:
		return "r-tree"
	case RTreeSTR:
		return "r-tree-str"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Result reports one distributed range-query run.
type Result struct {
	Method     Method
	NP         int
	NPoints    int
	NQueries   int
	TotalHits  int64 // global result count (same on rank 0; via MPI_Reduce)
	Elapsed    time.Duration
	BuildDur   time.Duration // index construction (zero for brute force)
	SearchDur  time.Duration
	WorkPruned float64 // fraction of point tests avoided vs brute force
}

// searcher abstracts the three implementations.
type searcher interface {
	Search(q data.Rect, dst []int) []int
}

type bruteSearcher struct {
	pts    data.Points
	tested int64
}

// Search scans every point, appending matches to dst.
func (b *bruteSearcher) Search(q data.Rect, dst []int) []int {
	for i := 0; i < b.pts.N(); i++ {
		b.tested++
		if q.Contains(b.pts.At(i)) {
			dst = append(dst, i)
		}
	}
	return dst
}

// newSearcher validates the points and every query, then builds method's
// searcher over pts. It also returns the searcher's work counter: the
// point or entry tests its searches have made so far, which WorkPruned
// compares with brute force's. The input is checked before anything is
// built, so in Distributed every rank rejects the same input before the
// collective.
func newSearcher(pts data.Points, queries []data.Rect, method Method) (searcher, func() int64, error) {
	if err := pts.Validate(); err != nil {
		return nil, nil, err
	}
	// Rect.Contains and Intersects take a NaN for inside, so a NaN
	// coordinate or bound would match everything.
	for i, v := range pts.Coords {
		if math.IsNaN(v) {
			return nil, nil, fmt.Errorf("rangequery: point %d has a NaN coordinate", i/pts.Dim)
		}
	}
	for i, q := range queries {
		if len(q.Min) != pts.Dim || len(q.Max) != pts.Dim {
			return nil, nil, fmt.Errorf("rangequery: query %d has %d-d min and %d-d max, points are %d-d",
				i, len(q.Min), len(q.Max), pts.Dim)
		}
		for d := range q.Min {
			if math.IsNaN(q.Min[d]) || math.IsNaN(q.Max[d]) {
				return nil, nil, fmt.Errorf("rangequery: query %d has a NaN bound", i)
			}
		}
	}
	var tr *rtree.Tree
	var err error
	switch method {
	case BruteForce:
		bs := &bruteSearcher{pts: pts}
		return bs, func() int64 { return bs.tested }, nil
	case RTree:
		tr, err = rtree.Bulk(pts, rtree.DefaultMaxEntries)
	case RTreeSTR:
		tr, err = rtree.BulkSTR(pts, rtree.DefaultMaxEntries)
	default:
		return nil, nil, fmt.Errorf("rangequery: unknown method %d", int(method))
	}
	if err != nil {
		return nil, nil, err
	}
	return tr, func() int64 { return tr.Stats().EntriesTested }, nil
}

// Distributed runs the module's distributed query workload: every rank
// holds the full input dataset (as the module prescribes) and searches
// its contiguous share of the query set; the global hit count is reduced
// onto rank 0 with MPI_Reduce — the module's one required primitive.
// Only rank 0's TotalHits is meaningful.
func Distributed(c *mpi.Comm, pts data.Points, queries []data.Rect, method Method) (Result, error) {
	p, r := c.Size(), c.Rank()
	start := time.Now()

	// Contiguous query partition.
	qLo := r * len(queries) / p
	qHi := (r + 1) * len(queries) / p

	s, tested, err := newSearcher(pts, queries, method)
	if err != nil {
		return Result{}, err
	}
	buildDur := time.Since(start)

	searchStart := time.Now()
	var hits int64
	var buf []int
	for _, q := range queries[qLo:qHi] {
		buf = s.Search(q, buf[:0])
		hits += int64(len(buf))
	}
	searchDur := time.Since(searchStart)

	total := []int64{hits, tested()}
	if err := mpi.ReduceInto(c, total, mpi.OpSum, 0); err != nil {
		return Result{}, err
	}
	res := Result{
		Method:    method,
		NP:        p,
		NPoints:   pts.N(),
		NQueries:  len(queries),
		Elapsed:   time.Since(start),
		BuildDur:  buildDur,
		SearchDur: searchDur,
	}
	if r == 0 {
		res.TotalHits = total[0]
		bruteTests := int64(pts.N()) * int64(len(queries))
		if bruteTests > 0 {
			res.WorkPruned = 1 - float64(total[1])/float64(bruteTests)
			if res.WorkPruned < 0 {
				res.WorkPruned = 0
			}
		}
	}
	return res, nil
}

// Sequential answers all queries on one process, the scaling baseline.
func Sequential(pts data.Points, queries []data.Rect, method Method) (int64, time.Duration, error) {
	start := time.Now()
	s, _, err := newSearcher(pts, queries, method)
	if err != nil {
		return 0, 0, err
	}
	var hits int64
	var buf []int
	for _, q := range queries {
		buf = s.Search(q, buf[:0])
		hits += int64(len(buf))
	}
	return hits, time.Since(start), nil
}

// Kernels returns roofline characterizations of the brute-force and
// R-tree searches for activity 3's resource-allocation modeling. The
// brute force performs 2·dim compare-flops per point per query with a
// streaming read; the R-tree performs far fewer flops but its pointer
// chasing gives it ~8× lower arithmetic intensity per byte touched.
func Kernels(nPoints, nQueries, dim int, prunedFraction float64) (brute, indexed perfmodel.Kernel) {
	tests := float64(nPoints) * float64(nQueries)
	brute = perfmodel.Kernel{
		Name:  "rq-brute-force",
		Flops: tests * float64(2*dim),
		// The scan streams the point set once per query, but tiling in
		// cache keeps effective traffic near one pass per cache-resident
		// block; charge one read per test.
		Bytes: tests * float64(dim) * 8 / 16, // high reuse: compute-bound
	}
	visited := tests * (1 - prunedFraction)
	indexed = perfmodel.Kernel{
		Name:  "rq-rtree",
		Flops: visited * float64(2*dim),
		// Pointer chasing defeats reuse: every visited entry costs a
		// full cache line.
		Bytes: visited * 64,
	}
	return brute, indexed
}

// NodePlacementStudy models activity 3: run the indexed search with p
// ranks on one node versus p ranks across two nodes and return the two
// modeled times. Students should observe the 2-node placement winning
// because the memory-bound search gets twice the aggregate bandwidth.
func NodePlacementStudy(m perfmodel.Machine, k perfmodel.Kernel, ranks int) (oneNode, twoNodes time.Duration, err error) {
	oneNode, err = m.Time(k, perfmodel.Placement{Ranks: ranks, Nodes: 1})
	if err != nil {
		return 0, 0, err
	}
	twoNodes, err = m.Time(k, perfmodel.Placement{Ranks: ranks, Nodes: 2})
	if err != nil {
		return 0, 0, err
	}
	return oneNode, twoNodes, nil
}

// AsteroidQuery is the module's motivating example: "return all asteroids
// with a light curve amplitude between 0.2–1.0 and a rotation period
// between 30–100 hours."
func AsteroidQuery() data.Rect {
	return data.Rect{Min: []float64{0.2, 30}, Max: []float64{1.0, 100}}
}
