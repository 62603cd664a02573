package distmatrix

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
)

func TestRowWiseSmallKnownValues(t *testing.T) {
	pts := data.Points{Dim: 1, Coords: []float64{0, 3, 7}}
	m := RowWise(pts, 0, 3)
	want := []float64{
		0, 3, 7,
		3, 0, 4,
		7, 4, 0,
	}
	for i := range want {
		if math.Abs(m[i]-want[i]) > 1e-12 {
			t.Fatalf("matrix[%d] = %v, want %v", i, m[i], want[i])
		}
	}
}

func TestTiledMatchesRowWise(t *testing.T) {
	pts := data.UniformPoints(137, DefaultDim, 0, 1, 2) // awkward N vs tile
	for _, tile := range []int{1, 7, 64, 200} {
		rw := RowWise(pts, 0, pts.N())
		tl := Tiled(pts, 0, pts.N(), tile)
		for i := range rw {
			if rw[i] != tl[i] {
				t.Fatalf("tile=%d: element %d differs: %v vs %v", tile, i, rw[i], tl[i])
			}
		}
	}
}

func TestPartialRowsMatchFull(t *testing.T) {
	pts := data.UniformPoints(60, 10, 0, 1, 3)
	full := RowWise(pts, 0, 60)
	part := RowWise(pts, 20, 35)
	n := pts.N()
	for i := 0; i < 15; i++ {
		for j := 0; j < n; j++ {
			if part[i*n+j] != full[(i+20)*n+j] {
				t.Fatalf("partial row block misaligned at (%d, %d)", i, j)
			}
		}
	}
	tiled := Tiled(pts, 20, 35, 8)
	for i := range part {
		if tiled[i] != part[i] {
			t.Fatalf("tiled partial block mismatch at %d", i)
		}
	}
}

func TestMatrixSymmetryAndDiagonal(t *testing.T) {
	pts := data.UniformPoints(50, 5, -2, 2, 4)
	m := RowWise(pts, 0, 50)
	n := 50
	for i := 0; i < n; i++ {
		if m[i*n+i] != 0 {
			t.Fatalf("diagonal (%d) = %v", i, m[i*n+i])
		}
		for j := i + 1; j < n; j++ {
			if m[i*n+j] != m[j*n+i] {
				t.Fatalf("asymmetric at (%d, %d)", i, j)
			}
			if m[i*n+j] < 0 {
				t.Fatalf("negative distance at (%d, %d)", i, j)
			}
		}
	}
}

func TestDistributedMatchesSequential(t *testing.T) {
	pts := data.UniformPoints(120, 30, 0, 1, 5)
	seq := Checksum(RowWise(pts, 0, pts.N()))
	for _, np := range []int{1, 2, 3, 4} {
		for _, tile := range []int{0, 32} {
			np, tile := np, tile
			t.Run(fmt.Sprintf("np=%d tile=%d", np, tile), func(t *testing.T) {
				err := mpi.Run(np, func(c *mpi.Comm) error {
					res, err := Distributed(c, pts, tile)
					if err != nil {
						return err
					}
					if c.Rank() == 0 {
						if math.Abs(res.Checksum-seq) > 1e-6*seq {
							return fmt.Errorf("checksum %v, want %v", res.Checksum, seq)
						}
						if res.N != 120 || res.NP != np {
							return fmt.Errorf("result meta %+v", res)
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

func TestDistributedUnevenRows(t *testing.T) {
	// 121 rows across 4 ranks: 31/30/30/30.
	pts := data.UniformPoints(121, 8, 0, 1, 6)
	seq := Checksum(RowWise(pts, 0, pts.N()))
	err := mpi.Run(4, func(c *mpi.Comm) error {
		res, err := Distributed(c, pts, 16)
		if err != nil {
			return err
		}
		if c.Rank() == 0 && math.Abs(res.Checksum-seq) > 1e-6*seq {
			return fmt.Errorf("checksum %v, want %v", res.Checksum, seq)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistributedUsesTable2Primitives(t *testing.T) {
	pts := data.UniformPoints(64, 8, 0, 1, 7)
	err := mpi.Run(4, func(c *mpi.Comm) error {
		if _, err := Distributed(c, pts, 0); err != nil {
			return err
		}
		if c.Rank() == 0 {
			snap := c.Stats()
			if snap.TotalCalls(mpi.PrimScatter) == 0 {
				return fmt.Errorf("MPI_Scatter not used")
			}
			if snap.TotalCalls(mpi.PrimReduce) == 0 {
				return fmt.Errorf("MPI_Reduce not used")
			}
			if snap.TotalCalls(mpi.PrimSend) != 0 {
				return fmt.Errorf("unexpected MPI_Send in Module 2")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistributedValidation(t *testing.T) {
	err := mpi.Run(4, func(c *mpi.Comm) error {
		_, err := Distributed(c, data.UniformPoints(2, 3, 0, 1, 1), 0)
		if err == nil {
			return fmt.Errorf("2 points on 4 ranks accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSimulateCacheTiledWinsOnBigWorkingSet(t *testing.T) {
	// 2000 points × 90 dims × 8 B = 1.44 MB working set against a
	// 256 KB cache: the row-wise scan thrashes, tiling reuses.
	cache, err := perfmodel.NewCache(256*1024, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := SimulateCache(cache, 2000, DefaultDim, 64, DefaultTile)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowWiseMissRate <= rep.TiledMissRate {
		t.Fatalf("tiling did not reduce misses: row-wise %.4f vs tiled %.4f",
			rep.RowWiseMissRate, rep.TiledMissRate)
	}
	if rep.RowWiseMissRate < 2*rep.TiledMissRate {
		t.Fatalf("expected ≥2× reduction, got %.4f vs %.4f",
			rep.RowWiseMissRate, rep.TiledMissRate)
	}
	if rep.RowWiseAccesses != rep.TiledAccesses {
		t.Fatalf("kernels touch different access counts: %d vs %d",
			rep.RowWiseAccesses, rep.TiledAccesses)
	}
}

func TestSimulateCacheSmallWorkingSetNoDifference(t *testing.T) {
	// A working set fitting in cache: both kernels enjoy ~100% hits.
	cache, _ := perfmodel.NewCache(1024*1024, 64, 8)
	rep, err := SimulateCache(cache, 100, 10, 50, 16)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowWiseMissRate > 0.02 || rep.TiledMissRate > 0.02 {
		t.Fatalf("fitting working set should barely miss: %.4f / %.4f",
			rep.RowWiseMissRate, rep.TiledMissRate)
	}
}

func TestSimulateCacheValidation(t *testing.T) {
	cache, _ := perfmodel.NewCache(1024, 64, 4)
	if _, err := SimulateCache(nil, 10, 2, 5, 4); err == nil {
		t.Fatal("nil cache accepted")
	}
	if _, err := SimulateCache(cache, 10, 2, 50, 4); err == nil {
		t.Fatal("rows > n accepted")
	}
}

func TestKernelCharacterization(t *testing.T) {
	k := Kernel(1000, 90)
	if k.Flops <= 0 || k.Bytes <= 0 {
		t.Fatalf("kernel %+v", k)
	}
	// The distance matrix is compute-bound: AI well above typical
	// machine balance points (~0.25 flops/byte for the default machine).
	if k.ArithmeticIntensity() < 1 {
		t.Fatalf("distance matrix modeled as memory-bound: AI=%v", k.ArithmeticIntensity())
	}
}

func TestChecksum(t *testing.T) {
	if got := Checksum([]float64{1, 2, 3.5}); got != 6.5 {
		t.Fatalf("checksum %v", got)
	}
	if got := Checksum(nil); got != 0 {
		t.Fatalf("empty checksum %v", got)
	}
}

func TestTileSweepShowsTradeoff(t *testing.T) {
	// 256 KiB cache holds ~364 90-d points; a 64-point tile pair fits
	// comfortably, a 512-point tile pair does not.
	cache, err := perfmodel.NewCache(256*1024, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := TileSweep(cache, 2000, DefaultDim, 64, []int{16, 64, 512, 2000})
	if err != nil {
		t.Fatal(err)
	}
	byTile := make(map[int]float64)
	for _, p := range pts {
		byTile[p.Tile] = p.MissRate
	}
	// Cache-fitting tiles miss rarely.
	if byTile[64] > 0.05 {
		t.Fatalf("tile 64 miss rate %.3f, expected <5%%", byTile[64])
	}
	// A tile as large as the dataset degenerates to the row-wise stream.
	if byTile[2000] < 5*byTile[64] {
		t.Fatalf("oversized tile should thrash: %.3f vs %.3f", byTile[2000], byTile[64])
	}
	// Monotone degradation past the knee.
	if byTile[512] < byTile[64] {
		t.Fatalf("tile 512 (%.3f) should not beat tile 64 (%.3f)", byTile[512], byTile[64])
	}
}

func TestTileSweepValidation(t *testing.T) {
	cache, _ := perfmodel.NewCache(1024, 64, 4)
	if _, err := TileSweep(cache, 10, 2, 5, []int{0}); err == nil {
		t.Fatal("zero tile accepted")
	}
}

// TilePoint is one entry of a tile-size sweep.
type TilePoint struct {
	Tile     int
	MissRate float64
}

// TileSweep replays the tiled kernel's access stream for each tile size
// and reports the simulated miss rate — the learning-outcome-6 experiment
// ("performance trade-offs between small and large tile sizes"): small
// tiles approach the row-wise stream's behaviour on the i side and pay
// loop overhead in wall clock; tiles whose working set exceeds the cache
// thrash again.
func TileSweep(cache *perfmodel.Cache, n, dim, rows int, tiles []int) ([]TilePoint, error) {
	out := make([]TilePoint, 0, len(tiles))
	for _, tile := range tiles {
		if tile <= 0 {
			return nil, fmt.Errorf("distmatrix: tile %d must be positive", tile)
		}
		rep, err := SimulateCache(cache, n, dim, rows, tile)
		if err != nil {
			return nil, err
		}
		out = append(out, TilePoint{Tile: tile, MissRate: rep.TiledMissRate})
	}
	return out, nil
}
