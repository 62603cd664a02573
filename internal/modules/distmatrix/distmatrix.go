// Package distmatrix implements Module 2 of the pedagogic modules: the
// N×N distance matrix on 90-dimensional points. It provides the row-wise
// and tiled kernels students compare, the MPI_Scatter/MPI_Reduce
// distribution, and a cache-simulator replay standing in for the perf
// tool's cache-miss counters (learning outcomes 4–8, 10, 11).
package distmatrix

import (
	"fmt"
	"math"
	"time"

	"repro/internal/data"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
)

// DefaultDim is the point dimensionality prescribed by the module.
const DefaultDim = 90

// DefaultTile is a tile size that keeps a tile pair within L2 for the
// default dimensionality.
const DefaultTile = 64

// RowWise computes rows [rowLo, rowHi) of the distance matrix of pts with
// the straightforward row-major access pattern: for each row i, scan every
// point j. The returned slice is (rowHi-rowLo)×N in row-major order.
func RowWise(pts data.Points, rowLo, rowHi int) []float64 {
	n := pts.N()
	out := make([]float64, (rowHi-rowLo)*n)
	for i := rowLo; i < rowHi; i++ {
		pi := pts.At(i)
		row := out[(i-rowLo)*n : (i-rowLo+1)*n]
		for j := 0; j < n; j++ {
			row[j] = math.Sqrt(data.SquaredDistance(pi, pts.At(j)))
		}
	}
	return out
}

// Tiled computes the same rows with loop tiling: the j loop is blocked so
// a tile of points stays cache-resident while every row of the i tile
// reuses it — the locality optimization the module teaches.
func Tiled(pts data.Points, rowLo, rowHi, tile int) []float64 {
	if tile <= 0 {
		tile = DefaultTile
	}
	n := pts.N()
	rows := rowHi - rowLo
	out := make([]float64, rows*n)
	for jj := 0; jj < n; jj += tile {
		jHi := min(jj+tile, n)
		for ii := rowLo; ii < rowHi; ii += tile {
			iHi := min(ii+tile, rowHi)
			for i := ii; i < iHi; i++ {
				pi := pts.At(i)
				row := out[(i-rowLo)*n : (i-rowLo+1)*n]
				for j := jj; j < jHi; j++ {
					row[j] = math.Sqrt(data.SquaredDistance(pi, pts.At(j)))
				}
			}
		}
	}
	return out
}

// Checksum folds a partial matrix into a single value used to verify
// distributed runs against the sequential reference without shipping N²
// floats around.
func Checksum(block []float64) float64 {
	var s float64
	for _, v := range block {
		s += v
	}
	return s
}

// Result reports one distributed distance-matrix computation.
type Result struct {
	N, Dim     int
	Tile       int // 0 for row-wise
	NP         int
	Elapsed    time.Duration
	ComputeDur time.Duration
	Checksum   float64 // global sum of all distances (via MPI_Reduce)
}

// Distributed computes the full N×N matrix across the communicator.
// Every rank holds the whole dataset (the module has each rank read the
// input file; callers pass the same deterministic dataset on all ranks).
// Rank 0 computes the row partition and scatters each rank's [lo, hi)
// row range with MPI_Scatter; ranks run the kernel on their rows (tiled
// when tile > 0) and a checksum is reduced onto rank 0 with MPI_Reduce —
// exactly the primitive set Table II prescribes for Module 2. The full
// matrix stays distributed, as the module prescribes for data exceeding
// single-node memory. Only rank 0's Checksum is meaningful.
func Distributed(c *mpi.Comm, pts data.Points, tile int) (Result, error) {
	if err := pts.Validate(); err != nil {
		return Result{}, err
	}
	p, r := c.Size(), c.Rank()
	n := pts.N()
	if n < p {
		return Result{}, fmt.Errorf("distmatrix: %d points across %d ranks", n, p)
	}
	start := time.Now()

	// Rank 0 assigns row ranges; MPI_Scatter hands each rank its pair.
	var ranges []int64
	if r == 0 {
		counts := rowCounts(n, p)
		lo := 0
		for _, cnt := range counts {
			ranges = append(ranges, int64(lo), int64(lo+cnt))
			lo += cnt
		}
	}
	myRange, err := mpi.Scatter(c, ranges, 0)
	if err != nil {
		return Result{}, err
	}
	rowLo, rowHi := int(myRange[0]), int(myRange[1])

	computeStart := time.Now()
	var block []float64
	if tile > 0 {
		block = Tiled(pts, rowLo, rowHi, tile)
	} else {
		block = RowWise(pts, rowLo, rowHi)
	}
	computeDur := time.Since(computeStart)

	sum := [1]float64{Checksum(block)}
	if err := mpi.ReduceInto(c, sum[:], mpi.OpSum, 0); err != nil {
		return Result{}, err
	}
	res := Result{
		N: n, Dim: pts.Dim, Tile: tile, NP: p,
		Elapsed:    time.Since(start),
		ComputeDur: computeDur,
	}
	if r == 0 {
		res.Checksum = sum[0]
	}
	return res, nil
}

// rowCounts splits n rows across p ranks as evenly as possible.
func rowCounts(n, p int) []int {
	counts := make([]int, p)
	base, rem := n/p, n%p
	for i := range counts {
		counts[i] = base
		if i < rem {
			counts[i]++
		}
	}
	return counts
}

// CacheReport compares simulated cache behaviour of the two kernels —
// the module's substitute for measuring cache misses with a performance
// tool (learning outcome 7).
type CacheReport struct {
	RowWiseAccesses, RowWiseMisses int64
	TiledAccesses, TiledMisses     int64
	RowWiseMissRate, TiledMissRate float64
}

// SimulateCache replays the exact memory-access streams of the row-wise
// and tiled kernels over rows [0, rows) of an n×dim dataset through a
// set-associative cache, and reports the miss rates. The stream models
// one read of point i and one read of point j per distance evaluation
// (the output matrix is write-streamed and bypasses the model).
func SimulateCache(cache *perfmodel.Cache, n, dim, rows, tile int) (CacheReport, error) {
	if cache == nil {
		return CacheReport{}, fmt.Errorf("distmatrix: nil cache")
	}
	if rows > n {
		return CacheReport{}, fmt.Errorf("distmatrix: rows %d > n %d", rows, n)
	}
	if tile <= 0 {
		tile = DefaultTile
	}
	ptBytes := dim * 8
	addr := func(i int) uint64 { return uint64(i * ptBytes) }

	cache.Reset()
	for i := 0; i < rows; i++ {
		for j := 0; j < n; j++ {
			cache.AccessRange(addr(i), ptBytes)
			cache.AccessRange(addr(j), ptBytes)
		}
	}
	rep := CacheReport{
		RowWiseAccesses: cache.Accesses(),
		RowWiseMisses:   cache.Misses(),
		RowWiseMissRate: cache.MissRate(),
	}

	cache.Reset()
	for jj := 0; jj < n; jj += tile {
		jHi := min(jj+tile, n)
		for ii := 0; ii < rows; ii += tile {
			iHi := min(ii+tile, rows)
			for i := ii; i < iHi; i++ {
				for j := jj; j < jHi; j++ {
					cache.AccessRange(addr(i), ptBytes)
					cache.AccessRange(addr(j), ptBytes)
				}
			}
		}
	}
	rep.TiledAccesses = cache.Accesses()
	rep.TiledMisses = cache.Misses()
	rep.TiledMissRate = cache.MissRate()
	return rep, nil
}

// Kernel characterizes the distance-matrix computation for the roofline
// model: ~3·dim flops per pair over n² pairs, reading 2·dim·8 bytes per
// pair from the point set (the model's effective traffic given partial
// reuse is what the cache report informs; we charge the row-wise stream).
func Kernel(n, dim int) perfmodel.Kernel {
	pairs := float64(n) * float64(n)
	return perfmodel.Kernel{
		Name:  fmt.Sprintf("distmatrix-n%d-d%d", n, dim),
		Flops: pairs * float64(3*dim),
		// With tiling, each point is re-read roughly once per tile pass:
		// n/tile passes over n points of dim×8 bytes.
		Bytes: float64(n) / DefaultTile * float64(n*dim*8),
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
