package kmeans

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/mpi"
)

// refAssign, refSums and refUpdate are the three loops an iteration ran
// before the flat data path — data.Points.At slices, data.SquaredDistance
// and a floating-point `d < best` scan — kept verbatim as the oracle:
// assignAndSum and updateCentroids must reproduce them bit for bit on
// every input, exact ties, empty clusters, NaN and ±Inf included.

// refAssign writes each point's nearest-centroid index into assign.
func refAssign(pts data.Points, cent data.Points, assign []int) {
	for i := 0; i < pts.N(); i++ {
		pt := pts.At(i)
		best, bestDist := 0, math.Inf(1)
		for c := 0; c < cent.N(); c++ {
			if d := data.SquaredDistance(pt, cent.At(c)); d < bestDist {
				best, bestDist = c, d
			}
		}
		assign[i] = best
	}
}

// refSums accumulates per-cluster coordinate sums and counts
// into caller-provided slices (len k·dim and k), zeroing them first.
func refSums(pts data.Points, assign []int, sums, counts []float64) {
	dim := pts.Dim
	for i := range sums {
		sums[i] = 0
	}
	for i := range counts {
		counts[i] = 0
	}
	for i := 0; i < pts.N(); i++ {
		a := assign[i]
		counts[a]++
		base := a * dim
		pt := pts.At(i)
		for d := 0; d < dim; d++ {
			sums[base+d] += pt[d]
		}
	}
}

// refUpdate moves centroids to their cluster means and reports
// whether any moved more than tol (squared distance). Empty clusters keep
// their previous position.
func refUpdate(cent data.Points, sums []float64, counts []float64, tol float64) bool {
	dim := cent.Dim
	moved := false
	buf := make([]float64, dim)
	for c := 0; c < cent.N(); c++ {
		if counts[c] == 0 {
			continue
		}
		for d := 0; d < dim; d++ {
			buf[d] = sums[c*dim+d] / counts[c]
		}
		if data.SquaredDistance(buf, cent.At(c)) > tol {
			moved = true
		}
		copy(cent.At(c), buf)
	}
	return moved
}

// refRun is Lloyd's algorithm built from the three reference loops: what
// Sequential computed, and what every rank of Distributed must agree on.
func refRun(pts data.Points, cfg Config) (cent data.Points, assign []int, iters int, converged bool) {
	cent = initialCentroids(pts, cfg.K, cfg.Seed)
	assign = make([]int, pts.N())
	sums := make([]float64, cfg.K*pts.Dim)
	counts := make([]float64, cfg.K)
	for iters < cfg.MaxIter {
		iters++
		refAssign(pts, cent, assign)
		refSums(pts, assign, sums, counts)
		if !refUpdate(cent, sums, counts, cfg.Tol) {
			return cent, assign, iters, true
		}
	}
	return cent, assign, iters, false
}

// sameBits reports whether a and b hold the same values bit for bit —
// except that any NaN matches any NaN: which operand's payload an add of
// two NaNs keeps is the instruction's choice, and the compiler may order
// the operands of the same source line differently in two functions.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || x != x && y != y
	})
}

// oracleCase is one generated dataset with its starting centroids.
type oracleCase struct {
	name      string
	pts, cent data.Points
}

// oracleCases builds the datasets the kernel is held to the oracle on: a
// Gaussian mixture; an integer grid with every point and every centroid
// duplicated, so most minima are exact ties between distinct indices; a
// layout where one centroid is out of every point's reach and its cluster
// stays empty; and the mixture with NaN, +Inf and −Inf planted in points
// and in centroids. The dim-2 kernel scans the points in blocks of four,
// so at dim 2 each dataset comes in four sizes, one per length of the
// last block.
func oracleCases(dim, k int, seed int64) []oracleCase {
	sizes := []int{4*k + 37}
	if dim == 2 {
		sizes = append(sizes, 4*k+38, 4*k+39, 4*k+40)
	}
	var cases []oracleCase
	for _, n := range sizes {
		for _, tc := range oracleCasesOfSize(dim, k, n, seed) {
			tc.name += fmt.Sprintf(" n=%d", n)
			cases = append(cases, tc)
		}
	}
	return cases
}

// oracleCasesOfSize builds oracleCases' four datasets with n points each.
func oracleCasesOfSize(dim, k, n int, seed int64) []oracleCase {
	rng := rand.New(rand.NewSource(seed))

	mix, _ := data.GaussianMixture(n, dim, min(k, 5), 1.5, 40, seed)
	cases := []oracleCase{{"mixture", mix, initialCentroids(mix, k, seed)}}

	grid := data.Points{Dim: dim, Coords: make([]float64, n*dim)}
	for i := 0; i < n/2; i++ {
		for d := 0; d < dim; d++ {
			grid.Coords[i*dim+d] = float64(rng.Intn(4))
		}
	}
	copy(grid.Coords[(n/2)*dim:], grid.Coords[:(n/2)*dim]) // every point twice
	gridCent := data.Points{Dim: dim, Coords: make([]float64, k*dim)}
	for c := 0; c < (k+1)/2; c++ {
		for d := 0; d < dim; d++ {
			gridCent.Coords[c*dim+d] = float64(rng.Intn(4))
		}
	}
	copy(gridCent.Coords[((k+1)/2)*dim:], gridCent.Coords) // and every centroid
	cases = append(cases, oracleCase{"tie-grid", grid, gridCent})

	far := initialCentroids(mix, k, seed+1)
	for d := 0; d < dim; d++ {
		far.Coords[(k-1)*dim+d] = 1e9
	}
	cases = append(cases, oracleCase{"empty-cluster", mix, far})

	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -math.NaN()}
	bad := data.Points{Dim: dim, Coords: slices.Clone(mix.Coords)}
	for j := 0; j < 6; j++ {
		bad.Coords[rng.Intn(len(bad.Coords))] = special[j%len(special)]
	}
	badCent := initialCentroids(mix, k, seed+2)
	for j := 0; j < (k+2)/3; j++ {
		badCent.Coords[rng.Intn(len(badCent.Coords))] = special[(j+1)%len(special)]
	}
	return append(cases, oracleCase{"nan-inf", bad, badCent})
}

// TestFlatKernelMatchesRef chains 20 iterations from each generated case
// and, after every one, compares the flat path's assignments, sums,
// counts, updated centroids and moved verdict with the reference loops'.
func TestFlatKernelMatchesRef(t *testing.T) {
	for _, dim := range []int{2, 90} {
		for _, k := range []int{1, 2, 3, 7, 16, 17, 64} {
			for _, tc := range oracleCases(dim, k, int64(100*dim+k)) {
				for _, tol := range []float64{-1, 0, 1e-6} {
					name := fmt.Sprintf("dim=%d k=%d %s tol=%g", dim, k, tc.name, tol)
					n := tc.pts.N()
					cent := data.Points{Dim: dim, Coords: slices.Clone(tc.cent.Coords)}
					ref := data.Points{Dim: dim, Coords: slices.Clone(tc.cent.Coords)}
					assign, refA := make([]int, n), make([]int, n)
					sums, refS := make([]float64, k*dim), make([]float64, k*dim)
					counts, refC := make([]float64, k), make([]float64, k)
					for it := 0; it < 20; it++ {
						// Poison the scratch: the step must zero it itself.
						for i := range sums {
							sums[i] = 7
						}
						for i := range counts {
							counts[i] = 7
						}
						assignAndSum(tc.pts, cent, assign, sums, counts)
						refAssign(tc.pts, ref, refA)
						refSums(tc.pts, refA, refS, refC)
						if !slices.Equal(assign, refA) {
							t.Fatalf("%s iteration %d: assignments differ", name, it)
						}
						if !sameBits(sums, refS) || !sameBits(counts, refC) {
							t.Fatalf("%s iteration %d: partial sums differ", name, it)
						}
						moved, refMoved := updateCentroids(cent, sums, counts, tol), refUpdate(ref, refS, refC, tol)
						if moved != refMoved {
							t.Fatalf("%s iteration %d: moved = %v, reference %v", name, it, moved, refMoved)
						}
						if !sameBits(cent.Coords, ref.Coords) {
							t.Fatalf("%s iteration %d: centroids differ", name, it)
						}
					}
				}
			}
		}
	}
}

// TestSequentialMatchesRefRun holds whole runs — Sequential, and a 4-rank
// Distributed under both communication options — to a run built from the
// reference loops. Sequential and the explicit option must match it bit
// for bit. The weighted-means option reduces per-rank partial sums in
// another order than one pass over all points adds them, so its centroids
// are held to the reference within the 1e-9 the module's own tests use,
// and to bit-identity across ranks.
func TestSequentialMatchesRefRun(t *testing.T) {
	pts, _ := data.GaussianMixture(960, 2, 4, 0.8, 50, 4)
	for _, cfg := range []Config{
		{K: 4, MaxIter: 50, Seed: 2},
		{K: 7, MaxIter: 12, Seed: 5, Tol: -1},
		{K: 16, MaxIter: 40, Seed: 9, Tol: 1e-6},
	} {
		refCent, refA, refIters, refConv := refRun(pts, cfg)
		seq, seqA, err := Sequential(pts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if seq.Iterations != refIters || seq.Converged != refConv || !slices.Equal(seqA, refA) || !sameBits(seq.Centroids.Coords, refCent.Coords) {
			t.Fatalf("k=%d: Sequential differs from the reference run (%d iterations, reference %d)", cfg.K, seq.Iterations, refIters)
		}
		refInertia := 0.0
		for i, a := range refA {
			refInertia += data.SquaredDistance(pts.At(i), refCent.At(a))
		}
		if math.Float64bits(seq.Inertia) != math.Float64bits(refInertia) {
			t.Fatalf("k=%d: inertia %v, reference %v", cfg.K, seq.Inertia, refInertia)
		}
		for _, opt := range []CommOption{WeightedMeans, ExplicitAssignments} {
			cfg := cfg
			cfg.Option = opt
			const np = 4
			var results [np]Result
			full := make([]int, pts.N())
			err := mpi.Run(np, func(c *mpi.Comm) error {
				res, assign, off, err := Distributed(c, pts, cfg)
				results[c.Rank()] = res
				copy(full[off:], assign)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			for r, res := range results {
				if !sameBits(res.Centroids.Coords, results[0].Centroids.Coords) {
					t.Fatalf("k=%d %v: rank %d centroids differ from rank 0", cfg.K, opt, r)
				}
			}
			res := results[0]
			if res.Iterations != refIters || res.Converged != refConv || !slices.Equal(full, refA) {
				t.Fatalf("k=%d %v: Distributed differs from the reference run (%d iterations, reference %d)", cfg.K, opt, res.Iterations, refIters)
			}
			// Rank 0 of the explicit option adds every point in global
			// order, exactly as the reference does.
			if opt == ExplicitAssignments && !sameBits(res.Centroids.Coords, refCent.Coords) {
				t.Fatalf("k=%d %v: centroids differ from the reference run", cfg.K, opt)
			}
			for i, v := range res.Centroids.Coords {
				if math.Abs(v-refCent.Coords[i]) > 1e-9 {
					t.Fatalf("k=%d %v: centroid coordinate %d = %v, reference %v", cfg.K, opt, i, v, refCent.Coords[i])
				}
			}
		}
	}
}

// FuzzNearest decodes raw bytes into a dimension, a centroid count and
// coordinates — any bit pattern, so NaN payloads, ±Inf, ±0 and denormals
// all occur — and holds one flat step to the reference loops.
func FuzzNearest(f *testing.F) {
	seed := func(dim, k int, coords ...float64) {
		raw := []byte{byte(dim - 1), byte(k - 1)}
		for _, v := range coords {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
		}
		f.Add(raw)
	}
	seed(2, 1, 0, 0, 1, 1)
	seed(2, 2, 0, 0, 0, 0, 1, 1, 0, 0, 2, 2)                    // duplicated centroids: ties
	seed(2, 3, 1, 1, 1, 1, 1, 1, 1, 1)                          // every distance 0
	seed(1, 2, math.NaN(), math.Inf(1), 0, -math.NaN(), 5, 6)   // NaN of both signs
	seed(2, 2, math.Inf(1), 0, 0, math.Inf(-1), 1, 2, 3, 4)     // every distance +Inf or NaN
	seed(3, 5, data.UniformPoints(20, 3, -1, 1, 31).Coords...)  // odd k, generic dim
	seed(2, 17, data.UniformPoints(40, 2, -1, 1, 32).Coords...) // odd k, dim 2
	seed(1, 1, 5e-324, -5e-324, math.Copysign(0, -1), math.MaxFloat64, -math.MaxFloat64, 1)
	// dim 2 scans blocks of four points: 5, 6 and 7 points leave a last
	// block one, two and three points long.
	seed(2, 3, data.UniformPoints(3+5, 2, -1, 1, 33).Coords...)
	seed(2, 3, data.UniformPoints(3+6, 2, -1, 1, 34).Coords...)
	seed(2, 3, data.UniformPoints(3+7, 2, -1, 1, 35).Coords...)
	// (1, 0) is equidistant from both centroids, in lanes 0 and 3 of the
	// first block and alone in the second: centroid 0 must win each tie.
	seed(2, 2, 0, 0, 2, 0, 1, 0, 5, 5, -3, 1, 1, 0, 1, 0)
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 2 {
			return
		}
		dim, k := int(raw[0]%5)+1, int(raw[1]%19)+1
		vals := make([]float64, (len(raw)-2)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[2+8*i:]))
		}
		if len(vals) < (k+1)*dim {
			return
		}
		cent := data.Points{Dim: dim, Coords: vals[:k*dim]}
		n := (len(vals) - k*dim) / dim
		pts := data.Points{Dim: dim, Coords: vals[k*dim : (k+n)*dim]}
		assign, refA := make([]int, n), make([]int, n)
		sums, refS := make([]float64, k*dim), make([]float64, k*dim)
		counts, refC := make([]float64, k), make([]float64, k)
		assignAndSum(pts, cent, assign, sums, counts)
		refAssign(pts, cent, refA)
		refSums(pts, refA, refS, refC)
		if !slices.Equal(assign, refA) {
			t.Fatalf("dim=%d k=%d: assignments %v, reference %v", dim, k, assign, refA)
		}
		if !sameBits(sums, refS) || !sameBits(counts, refC) {
			t.Fatalf("dim=%d k=%d: partial sums differ", dim, k)
		}
	})
}

// BenchmarkIteration times one iteration's local compute on one rank's
// share of the end-to-end benchmark's k-means workload (2048 of 8192
// points, k = 16), flat path against reference loops, at the paper's
// dim 2, at dim 3 (the generic body) and at Module 2's dim 90.
// ns/dist is per point-centroid distance.
func BenchmarkIteration(b *testing.B) {
	for _, dim := range []int{2, 3, 90} {
		const n, k = 2048, 16
		pts, _ := data.GaussianMixture(n, dim, 8, 2.0, 100, 7)
		start := initialCentroids(pts, k, 7)
		assign := make([]int, n)
		sums, counts := make([]float64, k*dim), make([]float64, k)
		run := func(name string, step func(cent data.Points)) {
			b.Run(fmt.Sprintf("dim=%d/%s", dim, name), func(b *testing.B) {
				cent := data.Points{Dim: dim, Coords: slices.Clone(start.Coords)}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					step(cent)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(n*k), "ns/dist")
			})
		}
		run("flat", func(cent data.Points) {
			assignAndSum(pts, cent, assign, sums, counts)
			updateCentroids(cent, sums, counts, -1)
		})
		run("ref", func(cent data.Points) {
			refAssign(pts, cent, assign)
			refSums(pts, assign, sums, counts)
			refUpdate(cent, sums, counts, -1)
		})
	}
}
