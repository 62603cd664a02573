// Package data provides the deterministic synthetic dataset generators
// used by the pedagogic modules: uniform and exponential key sets for the
// distribution sort (Module 3), high-dimensional feature vectors for the
// distance matrix (Module 2), Gaussian mixtures for k-means (Module 5),
// and the asteroid catalog motivating the range-query module (Module 4).
//
// All generators are seeded so every experiment in EXPERIMENTS.md is
// exactly reproducible.
package data

import (
	"fmt"
	"math"
	"math/rand"
)

// Points is a flat row-major collection of n points in dim dimensions.
// The flat layout matters: Module 2's cache-locality experiments depend on
// points being contiguous in memory.
type Points struct {
	Dim    int
	Coords []float64 // len = N*Dim
}

// N returns the number of points.
func (p Points) N() int {
	if p.Dim == 0 {
		return 0
	}
	return len(p.Coords) / p.Dim
}

// At returns the i-th point as a slice aliasing the underlying storage.
func (p Points) At(i int) []float64 {
	return p.Coords[i*p.Dim : (i+1)*p.Dim]
}

// Validate checks structural invariants.
func (p Points) Validate() error {
	if p.Dim <= 0 {
		return fmt.Errorf("data: dimension %d must be positive", p.Dim)
	}
	if len(p.Coords)%p.Dim != 0 {
		return fmt.Errorf("data: %d coordinates is not a multiple of dimension %d", len(p.Coords), p.Dim)
	}
	return nil
}

// UniformPoints generates n points uniformly in [lo, hi)^dim.
// Module 2 uses dim=90, matching the paper's 90-dimensional dataset.
func UniformPoints(n, dim int, lo, hi float64, seed int64) Points {
	rng := rand.New(rand.NewSource(seed))
	coords := make([]float64, n*dim)
	for i := range coords {
		coords[i] = lo + rng.Float64()*(hi-lo)
	}
	return Points{Dim: dim, Coords: coords}
}

// UniformKeys generates n keys uniformly in [lo, hi) — Module 3's first
// activity (balanced buckets).
func UniformKeys(n int, lo, hi float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = lo + rng.Float64()*(hi-lo)
	}
	return keys
}

// ExponentialKeys generates n exponentially distributed keys with the
// given rate (mean 1/rate) — Module 3's second activity, where equal-width
// buckets develop severe load imbalance.
func ExponentialKeys(n int, rate float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = rng.ExpFloat64() / rate
	}
	return keys
}

// GaussianMixture generates n points in dim dimensions drawn from k
// isotropic Gaussian clusters with the given standard deviation, plus the
// ground-truth label of each point. Centers are uniform in [0, extent)^dim.
// Module 5 clusters this data and students "see the data cluster
// correctly"; tests use the labels to verify recovery.
func GaussianMixture(n, dim, k int, stddev, extent float64, seed int64) (Points, []int) {
	rng := rand.New(rand.NewSource(seed))
	centers := make([]float64, k*dim)
	for i := range centers {
		centers[i] = rng.Float64() * extent
	}
	coords := make([]float64, n*dim)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := rng.Intn(k)
		labels[i] = c
		for d := 0; d < dim; d++ {
			coords[i*dim+d] = centers[c*dim+d] + rng.NormFloat64()*stddev
		}
	}
	return Points{Dim: dim, Coords: coords}, labels
}

// Asteroid is one row of the synthetic catalog behind Module 4's
// motivating query: "return all asteroids with a light curve amplitude
// between 0.2–1.0 and a rotation period between 30–100 hours."
type Asteroid struct {
	Amplitude float64 // light-curve amplitude, magnitudes
	Period    float64 // rotation period, hours
}

// AsteroidCatalog synthesizes n asteroids. Amplitudes follow a truncated
// exponential (most asteroids vary little); periods are log-uniform over
// [2, 2000) hours, echoing the broad spin-rate distribution of real
// surveys.
func AsteroidCatalog(n int, seed int64) []Asteroid {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Asteroid, n)
	for i := range out {
		amp := rng.ExpFloat64() * 0.3
		if amp > 2.0 {
			amp = 2.0
		}
		logP := math.Log(2) + rng.Float64()*(math.Log(2000)-math.Log(2))
		out[i] = Asteroid{Amplitude: amp, Period: math.Exp(logP)}
	}
	return out
}

// AsteroidPoints converts a catalog to 2-d Points (amplitude, period) for
// the generic range-query machinery.
func AsteroidPoints(cat []Asteroid) Points {
	coords := make([]float64, 0, 2*len(cat))
	for _, a := range cat {
		coords = append(coords, a.Amplitude, a.Period)
	}
	return Points{Dim: 2, Coords: coords}
}

// Rect is an axis-aligned box; Min and Max have the same length as the
// point dimension. It is the query shape of Module 4 and the bounding-box
// type of the spatial indexes.
type Rect struct {
	Min, Max []float64
}

// Contains reports whether pt lies inside the rectangle (inclusive).
func (r Rect) Contains(pt []float64) bool {
	for d := range r.Min {
		if pt[d] < r.Min[d] || pt[d] > r.Max[d] {
			return false
		}
	}
	return true
}

// Intersects reports whether two rectangles overlap.
func (r Rect) Intersects(o Rect) bool {
	for d := range r.Min {
		if r.Max[d] < o.Min[d] || o.Max[d] < r.Min[d] {
			return false
		}
	}
	return true
}

// Area returns the d-dimensional volume of the rectangle.
func (r Rect) Area() float64 {
	area := 1.0
	for d := range r.Min {
		area *= r.Max[d] - r.Min[d]
	}
	return area
}

// EnlargedArea returns the area of the union of r and o without
// allocating — the hot operation of R-tree insertion.
func EnlargedArea(r, o Rect) float64 {
	area := 1.0
	for d := range r.Min {
		lo := math.Min(r.Min[d], o.Min[d])
		hi := math.Max(r.Max[d], o.Max[d])
		area *= hi - lo
	}
	return area
}

// ExpandToInclude grows r in place to cover o. The receiver's slices are
// mutated.
func (r Rect) ExpandToInclude(o Rect) {
	for d := range r.Min {
		if o.Min[d] < r.Min[d] {
			r.Min[d] = o.Min[d]
		}
		if o.Max[d] > r.Max[d] {
			r.Max[d] = o.Max[d]
		}
	}
}

// Clone deep-copies the rectangle.
func (r Rect) Clone() Rect {
	return Rect{Min: append([]float64(nil), r.Min...), Max: append([]float64(nil), r.Max...)}
}

// PointRect returns the degenerate rectangle covering a single point.
func PointRect(pt []float64) Rect {
	return Rect{Min: append([]float64(nil), pt...), Max: append([]float64(nil), pt...)}
}

// UniformRects generates query rectangles whose corners are uniform in
// [lo, hi)^dim with edge lengths uniform in [0, maxEdge). Module 4's query
// dataset.
func UniformRects(n, dim int, lo, hi, maxEdge float64, seed int64) []Rect {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Rect, n)
	for i := range out {
		mn := make([]float64, dim)
		mx := make([]float64, dim)
		for d := 0; d < dim; d++ {
			mn[d] = lo + rng.Float64()*(hi-lo)
			mx[d] = mn[d] + rng.Float64()*maxEdge
		}
		out[i] = Rect{Min: mn, Max: mx}
	}
	return out
}

// SquaredDistance returns the squared Euclidean distance between points of
// equal dimension. Hot path of Modules 2 and 5 — no bounds-check hints or
// unsafe, just a tight loop.
func SquaredDistance(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
