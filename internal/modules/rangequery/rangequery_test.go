package rangequery

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
)

var allMethods = []Method{BruteForce, RTree, RTreeSTR}

// grid returns the (n+1)² points of the integer grid [0, n]², so query
// bounds at integers fall exactly on points.
func grid(n int) data.Points {
	pts := data.Points{Dim: 2}
	for x := 0; x <= n; x++ {
		for y := 0; y <= n; y++ {
			pts.Coords = append(pts.Coords, float64(x), float64(y))
		}
	}
	return pts
}

// duplicates appends n copies of pt to pts.
func duplicates(pts data.Points, pt []float64, n int) data.Points {
	for i := 0; i < n; i++ {
		pts.Coords = append(pts.Coords, pt...)
	}
	return pts
}

// nearCoincident returns three copies of (0.5, 0.5), one point 1e-12 to
// their right and one apart, among 200 uniform points of the unit square.
func nearCoincident() data.Points {
	pts := duplicates(data.UniformPoints(200, 2, 0, 1, 13), []float64{0.5, 0.5}, 3)
	pts.Coords = append(pts.Coords, 0.5+1e-12, 0.5, 0.25, 0.75)
	return pts
}

func rect(x0, y0, x1, y1 float64) data.Rect {
	return data.Rect{Min: []float64{x0, y0}, Max: []float64{x1, y1}}
}

func TestSequentialMethodsAgree(t *testing.T) {
	clustered, _ := data.GaussianMixture(2000, 2, 3, 0.5, 50, 10)
	wide, _ := data.GaussianMixture(5000, 2, 4, 1.0, 100, 16)
	for _, tc := range []struct {
		name    string
		pts     data.Points
		queries []data.Rect
	}{
		{"uniform", data.UniformPoints(5000, 2, 0, 100, 1), data.UniformRects(300, 2, 0, 100, 8, 2)},
		// Query edges and corners fall on grid points: Contains is
		// inclusive, so every method must count them.
		{"edges", grid(10), []data.Rect{
			rect(0, 0, 10, 10), rect(2, 3, 5, 7), rect(0, 0, 0, 0), rect(10, 10, 10, 10),
			rect(0, 10, 0, 10), rect(10, 0, 10, 0), rect(4, 0, 4, 10), rect(0, 6, 10, 6),
			rect(3.5, 3.5, 4, 4), rect(-1, -1, 0, 0), rect(10, 10, 11, 11),
		}},
		// Only copies of one point: no split can separate them.
		{"duplicates", duplicates(data.Points{Dim: 2}, []float64{1, 2}, 100), []data.Rect{
			data.PointRect([]float64{1, 2}), rect(0, 0, 4, 4), rect(1, 2, 3, 3), rect(0, 0, 0.5, 0.5),
		}},
		{"coincident", duplicates(data.UniformPoints(400, 2, 0, 4, 9), []float64{1, 2}, 100), []data.Rect{
			data.PointRect([]float64{1, 2}), rect(0, 0, 4, 4), rect(1, 2, 3, 3),
			rect(0, 0, 1, 2), rect(1.5, 2.5, 3, 3),
		}},
		{"near-coincident", nearCoincident(), []data.Rect{
			rect(0, 0, 1, 1), data.PointRect([]float64{0.5, 0.5}), rect(0.5, 0.5, 0.5+1e-12, 0.5),
			rect(0.5+1e-13, 0, 1, 1), data.PointRect([]float64{0.25, 0.75}),
		}},
		{"clustered", clustered, data.UniformRects(300, 2, 0, 50, 6, 11)},
		{"clustered-wide", wide, append([]data.Rect{rect(0, 0, 5, 5)}, data.UniformRects(300, 2, 0, 100, 6, 17)...)},
		{"empty", data.Points{Dim: 2}, data.UniformRects(20, 2, 0, 10, 5, 12)},
		{"empty-no-queries", data.Points{Dim: 2}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, _, err := Sequential(tc.pts, tc.queries, BruteForce)
			if err != nil {
				t.Fatal(err)
			}
			if want == 0 && tc.pts.N() > 0 {
				t.Fatal("degenerate workload: zero hits")
			}
			for _, m := range allMethods[1:] {
				got, _, err := Sequential(tc.pts, tc.queries, m)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%v found %d hits, brute force %d", m, got, want)
				}
			}
		})
	}
}

// TestMalformedInputRejected checks that every method rejects points that
// fail Validate and queries whose bounds are not pts.Dim long, and that in
// Distributed every rank returns that error rather than entering the
// reduction.
func TestMalformedInputRejected(t *testing.T) {
	pts := data.UniformPoints(100, 2, 0, 10, 1)
	good := rect(0, 0, 5, 5)
	for _, tc := range []struct {
		name    string
		pts     data.Points
		queries []data.Rect
	}{
		{"zero dim", data.Points{Dim: 0}, nil},
		{"ragged coords", data.Points{Dim: 2, Coords: []float64{1, 2, 3}}, nil},
		{"3-d query", pts, []data.Rect{good, {Min: []float64{0, 0, 0}, Max: []float64{5, 5, 5}}}},
		{"1-d query", pts, []data.Rect{{Min: []float64{0}, Max: []float64{5}}, good}},
		{"min max differ", pts, []data.Rect{good, {Min: []float64{0, 0}, Max: []float64{5, 5, 5}}}},
		{"NaN min", pts, []data.Rect{good, {Min: []float64{math.NaN(), 0}, Max: []float64{5, 5}}}},
		{"NaN max", pts, []data.Rect{good, {Min: []float64{0, 0}, Max: []float64{5, math.NaN()}}}},
		{"NaN point", data.Points{Dim: 2, Coords: []float64{1, 1, 2, math.NaN()}}, []data.Rect{good}},
	} {
		for _, m := range allMethods {
			t.Run(fmt.Sprintf("%s/%v", tc.name, m), func(t *testing.T) {
				if _, _, err := Sequential(tc.pts, tc.queries, m); err == nil {
					t.Fatal("Sequential accepted malformed input")
				}
				errs := make([]error, 2)
				err := mpi.Run(2, func(c *mpi.Comm) error {
					_, errs[c.Rank()] = Distributed(c, tc.pts, tc.queries, m)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for r, err := range errs {
					if err == nil || errors.Is(err, mpi.ErrDeadlock) {
						t.Fatalf("rank %d: Distributed returned %v", r, err)
					}
				}
			})
		}
	}
}

func TestDistributedMatchesSequential(t *testing.T) {
	pts := data.UniformPoints(2000, 2, 0, 50, 3)
	queries := data.UniformRects(100, 2, 0, 50, 5, 4)
	want, _, err := Sequential(pts, queries, BruteForce)
	if err != nil {
		t.Fatal(err)
	}
	for _, np := range []int{1, 2, 3, 4} {
		for _, m := range allMethods {
			np, m := np, m
			t.Run(fmt.Sprintf("np=%d %v", np, m), func(t *testing.T) {
				err := mpi.Run(np, func(c *mpi.Comm) error {
					res, err := Distributed(c, pts, queries, m)
					if err != nil {
						return err
					}
					if c.Rank() == 0 {
						if res.TotalHits != want {
							return fmt.Errorf("%d hits, want %d", res.TotalHits, want)
						}
						if res.NP != np || res.NQueries != 100 {
							return fmt.Errorf("meta %+v", res)
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestIndexPrunesWork(t *testing.T) {
	pts := data.UniformPoints(10_000, 2, 0, 100, 5)
	queries := data.UniformRects(200, 2, 0, 100, 3, 6)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		brute, err := Distributed(c, pts, queries, BruteForce)
		if err != nil {
			return err
		}
		rtree, err := Distributed(c, pts, queries, RTree)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if brute.WorkPruned > 0.01 {
				return fmt.Errorf("brute force claims %v pruning", brute.WorkPruned)
			}
			if rtree.WorkPruned < 0.5 {
				return fmt.Errorf("r-tree pruned only %.2f of work", rtree.WorkPruned)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestModule4UsesReduce(t *testing.T) {
	pts := data.UniformPoints(500, 2, 0, 10, 7)
	queries := data.UniformRects(20, 2, 0, 10, 2, 8)
	err := mpi.Run(3, func(c *mpi.Comm) error {
		if _, err := Distributed(c, pts, queries, RTree); err != nil {
			return err
		}
		if c.Rank() == 0 {
			snap := c.Stats()
			if snap.TotalCalls(mpi.PrimReduce) == 0 {
				return fmt.Errorf("MPI_Reduce (Module 4's required primitive) not used")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAsteroidQueryScenario(t *testing.T) {
	cat := data.AsteroidCatalog(50_000, 11)
	pts := data.AsteroidPoints(cat)
	q := AsteroidQuery()
	wantHits := 0
	for _, a := range cat {
		if a.Amplitude >= 0.2 && a.Amplitude <= 1.0 && a.Period >= 30 && a.Period <= 100 {
			wantHits++
		}
	}
	got, _, err := Sequential(pts, []data.Rect{q}, RTree)
	if err != nil {
		t.Fatal(err)
	}
	if got != int64(wantHits) {
		t.Fatalf("asteroid query: %d hits, want %d", got, wantHits)
	}
	if wantHits == 0 {
		t.Fatal("motivating query returns nothing")
	}
}

func TestKernelsShapes(t *testing.T) {
	brute, indexed := Kernels(100_000, 10_000, 2, 0.95)
	// Brute force must be compute-bound relative to the indexed search.
	if brute.ArithmeticIntensity() <= indexed.ArithmeticIntensity() {
		t.Fatalf("AI ordering wrong: brute %v vs indexed %v",
			brute.ArithmeticIntensity(), indexed.ArithmeticIntensity())
	}
	// The indexed search must do far fewer flops.
	if indexed.Flops >= brute.Flops/2 {
		t.Fatalf("index not more efficient: %v vs %v flops", indexed.Flops, brute.Flops)
	}
}

// TestPaperClaimScalabilityVsEfficiency reproduces the central lesson of
// Module 4: brute force scales better, but the R-tree is faster in
// absolute terms — "more efficient algorithms often have worse
// scalability than their simple counterparts."
func TestPaperClaimScalabilityVsEfficiency(t *testing.T) {
	m := perfmodel.DefaultMachine()
	brute, indexed := Kernels(100_000, 10_000, 2, 0.95)
	bsp, err := m.Speedup(brute, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	isp, err := m.Speedup(indexed, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bsp[19] <= isp[19] {
		t.Fatalf("brute-force speedup %v not better than indexed %v", bsp[19], isp[19])
	}
	bt, _ := m.Time(brute, perfmodel.Placement{Ranks: 20, Nodes: 1})
	it, _ := m.Time(indexed, perfmodel.Placement{Ranks: 20, Nodes: 1})
	if it >= bt {
		t.Fatalf("indexed (%v) not faster than brute (%v) at 20 ranks", it, bt)
	}
}

func TestNodePlacementStudy(t *testing.T) {
	m := perfmodel.DefaultMachine()
	_, indexed := Kernels(100_000, 10_000, 2, 0.95)
	one, two, err := NodePlacementStudy(m, indexed, 16)
	if err != nil {
		t.Fatal(err)
	}
	if two >= one {
		t.Fatalf("2-node placement (%v) not faster than 1-node (%v) for memory-bound search", two, one)
	}
}

func TestUnknownMethodRejected(t *testing.T) {
	pts := data.UniformPoints(10, 2, 0, 1, 1)
	if _, _, err := Sequential(pts, nil, Method(42)); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestMethodStrings(t *testing.T) {
	for _, m := range allMethods {
		if m.String() == "" {
			t.Fatal("empty method name")
		}
	}
	if Method(42).String() == "" {
		t.Fatal("unknown method empty name")
	}
}

func TestEmptyQuerySet(t *testing.T) {
	pts := data.UniformPoints(100, 2, 0, 1, 2)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		res, err := Distributed(c, pts, nil, RTree)
		if err != nil {
			return err
		}
		if c.Rank() == 0 && res.TotalHits != 0 {
			return fmt.Errorf("%d hits for empty query set", res.TotalHits)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMoreRanksThanQueries(t *testing.T) {
	pts := data.UniformPoints(100, 2, 0, 1, 2)
	queries := data.UniformRects(3, 2, 0, 1, 0.5, 3)
	want, _, err := Sequential(pts, queries, BruteForce)
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(8, func(c *mpi.Comm) error {
		res, err := Distributed(c, pts, queries, BruteForce)
		if err != nil {
			return err
		}
		if c.Rank() == 0 && res.TotalHits != want {
			return fmt.Errorf("%d hits, want %d", res.TotalHits, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
