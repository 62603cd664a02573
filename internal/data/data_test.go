package data

import (
	"math"
	"testing"
	"testing/quick"
)

// Enlarged returns the minimal rectangle covering both r and o: the
// allocating reference that EnlargedArea and ExpandToInclude are held to.
func (r Rect) Enlarged(o Rect) Rect {
	mn := make([]float64, len(r.Min))
	mx := make([]float64, len(r.Max))
	for d := range mn {
		mn[d] = math.Min(r.Min[d], o.Min[d])
		mx[d] = math.Max(r.Max[d], o.Max[d])
	}
	return Rect{Min: mn, Max: mx}
}

func TestUniformPointsShapeAndRange(t *testing.T) {
	p := UniformPoints(100, 90, -5, 5, 1)
	if p.N() != 100 || p.Dim != 90 {
		t.Fatalf("shape %d×%d", p.N(), p.Dim)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, c := range p.Coords {
		if c < -5 || c >= 5 {
			t.Fatalf("coordinate %v out of range", c)
		}
	}
}

func TestUniformPointsDeterministic(t *testing.T) {
	a := UniformPoints(50, 3, 0, 1, 42)
	b := UniformPoints(50, 3, 0, 1, 42)
	for i := range a.Coords {
		if a.Coords[i] != b.Coords[i] {
			t.Fatal("same seed produced different data")
		}
	}
	c := UniformPoints(50, 3, 0, 1, 43)
	same := true
	for i := range a.Coords {
		if a.Coords[i] != c.Coords[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestPointsAtAliasesStorage(t *testing.T) {
	p := UniformPoints(10, 4, 0, 1, 7)
	p.At(3)[2] = 99
	if p.Coords[3*4+2] != 99 {
		t.Fatal("At does not alias storage")
	}
}

func TestPointsSlice(t *testing.T) {
	p := UniformPoints(10, 2, 0, 1, 7)
	s := p.Slice(2, 5)
	if s.N() != 3 {
		t.Fatalf("slice N = %d", s.N())
	}
	if s.At(0)[0] != p.At(2)[0] {
		t.Fatal("slice misaligned")
	}
}

func TestValidateRejectsBadShapes(t *testing.T) {
	if err := (Points{Dim: 0}).Validate(); err == nil {
		t.Fatal("zero dim accepted")
	}
	if err := (Points{Dim: 3, Coords: make([]float64, 7)}).Validate(); err == nil {
		t.Fatal("ragged coords accepted")
	}
}

func TestExponentialKeysMean(t *testing.T) {
	keys := ExponentialKeys(200_000, 2.0, 5)
	var sum float64
	for _, k := range keys {
		if k < 0 {
			t.Fatalf("negative exponential key %v", k)
		}
		sum += k
	}
	mean := sum / float64(len(keys))
	if math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("mean %v, want ≈ 0.5", mean)
	}
}

func TestGaussianMixtureLabels(t *testing.T) {
	pts, labels := GaussianMixture(1000, 2, 4, 0.1, 100, 3)
	if pts.N() != 1000 || len(labels) != 1000 {
		t.Fatalf("shape %d/%d", pts.N(), len(labels))
	}
	seen := make(map[int]int)
	for _, l := range labels {
		if l < 0 || l >= 4 {
			t.Fatalf("label %d out of range", l)
		}
		seen[l]++
	}
	if len(seen) != 4 {
		t.Fatalf("only %d clusters populated", len(seen))
	}
}

func TestGaussianMixtureTightClusters(t *testing.T) {
	// With tiny stddev and huge extent, same-label points must be much
	// closer to each other than different-label points on average.
	pts, labels := GaussianMixture(400, 2, 3, 0.01, 1000, 9)
	var same, diff float64
	var nSame, nDiff int
	for i := 0; i < 100; i++ {
		for j := i + 1; j < 100; j++ {
			d := math.Sqrt(SquaredDistance(pts.At(i), pts.At(j)))
			if labels[i] == labels[j] {
				same += d
				nSame++
			} else {
				diff += d
				nDiff++
			}
		}
	}
	if nSame == 0 || nDiff == 0 {
		t.Skip("degenerate sample")
	}
	if same/float64(nSame) > diff/float64(nDiff)/10 {
		t.Fatalf("clusters not tight: same=%v diff=%v", same/float64(nSame), diff/float64(nDiff))
	}
}

func TestAsteroidCatalogRanges(t *testing.T) {
	cat := AsteroidCatalog(10_000, 11)
	inQuery := 0
	for _, a := range cat {
		if a.Amplitude < 0 || a.Amplitude > 2.0 {
			t.Fatalf("amplitude %v out of range", a.Amplitude)
		}
		if a.Period < 2 || a.Period >= 2000 {
			t.Fatalf("period %v out of range", a.Period)
		}
		if a.Amplitude >= 0.2 && a.Amplitude <= 1.0 && a.Period >= 30 && a.Period <= 100 {
			inQuery++
		}
	}
	// The paper's example query must be selective but non-empty.
	if inQuery == 0 || inQuery > 5000 {
		t.Fatalf("example query selects %d of 10000", inQuery)
	}
}

func TestRectContainsIntersects(t *testing.T) {
	r := Rect{Min: []float64{0, 0}, Max: []float64{2, 2}}
	if !r.Contains([]float64{1, 1}) || !r.Contains([]float64{0, 2}) {
		t.Fatal("contains broken on interior/boundary")
	}
	if r.Contains([]float64{3, 1}) {
		t.Fatal("contains accepted exterior point")
	}
	o := Rect{Min: []float64{1, 1}, Max: []float64{5, 5}}
	if !r.Intersects(o) || !o.Intersects(r) {
		t.Fatal("intersects broken")
	}
	far := Rect{Min: []float64{10, 10}, Max: []float64{11, 11}}
	if r.Intersects(far) {
		t.Fatal("disjoint rects intersect")
	}
}

func TestRectEnlargedArea(t *testing.T) {
	a := Rect{Min: []float64{0, 0}, Max: []float64{1, 1}}
	b := Rect{Min: []float64{2, 2}, Max: []float64{3, 4}}
	e := a.Enlarged(b)
	if e.Min[0] != 0 || e.Max[1] != 4 {
		t.Fatalf("enlarged = %+v", e)
	}
	if got := e.Area(); got != 12 {
		t.Fatalf("area %v, want 12", got)
	}
}

func TestRectPropertyEnlargedContainsBoth(t *testing.T) {
	f := func(ax, ay, bx, by, w1, h1, w2, h2 float64) bool {
		w1, h1, w2, h2 = math.Abs(w1), math.Abs(h1), math.Abs(w2), math.Abs(h2)
		if math.IsNaN(ax + ay + bx + by + w1 + h1 + w2 + h2) {
			return true
		}
		if math.IsInf(ax, 0) || math.IsInf(ay, 0) || math.IsInf(bx, 0) || math.IsInf(by, 0) ||
			math.IsInf(w1, 0) || math.IsInf(h1, 0) || math.IsInf(w2, 0) || math.IsInf(h2, 0) {
			return true
		}
		a := Rect{Min: []float64{ax, ay}, Max: []float64{ax + w1, ay + h1}}
		b := Rect{Min: []float64{bx, by}, Max: []float64{bx + w2, by + h2}}
		e := a.Enlarged(b)
		return e.Contains(a.Min) && e.Contains(a.Max) && e.Contains(b.Min) && e.Contains(b.Max)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSquaredDistance(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 6, 3}
	if got := SquaredDistance(a, b); got != 25 {
		t.Fatalf("squared distance %v, want 25", got)
	}
	if got := SquaredDistance(a, a); got != 0 {
		t.Fatalf("self distance %v", got)
	}
}

func TestUniformRects(t *testing.T) {
	rects := UniformRects(100, 2, 0, 10, 1, 13)
	for _, r := range rects {
		for d := 0; d < 2; d++ {
			if r.Max[d] < r.Min[d] {
				t.Fatalf("inverted rect %+v", r)
			}
			if r.Max[d]-r.Min[d] > 1 {
				t.Fatalf("edge too long: %+v", r)
			}
		}
	}
}

func TestPointRect(t *testing.T) {
	pr := PointRect([]float64{3, 4})
	if !pr.Contains([]float64{3, 4}) || pr.Area() != 0 {
		t.Fatalf("point rect %+v", pr)
	}
}

func TestUniformKeysRangeAndDeterminism(t *testing.T) {
	a := UniformKeys(1000, -5, 5, 3)
	b := UniformKeys(1000, -5, 5, 3)
	for i := range a {
		if a[i] < -5 || a[i] >= 5 {
			t.Fatalf("key %v out of range", a[i])
		}
		if a[i] != b[i] {
			t.Fatal("same seed differs")
		}
	}
}

func TestAsteroidPoints(t *testing.T) {
	cat := AsteroidCatalog(50, 1)
	pts := AsteroidPoints(cat)
	if pts.Dim != 2 || pts.N() != 50 {
		t.Fatalf("shape %d×%d", pts.N(), pts.Dim)
	}
	for i, a := range cat {
		if pts.At(i)[0] != a.Amplitude || pts.At(i)[1] != a.Period {
			t.Fatalf("row %d mismatch", i)
		}
	}
}

func TestEnlargedAreaMatchesEnlarged(t *testing.T) {
	f := func(ax, ay, bx, by, w1, h1, w2, h2 float64) bool {
		for _, v := range []float64{ax, ay, bx, by, w1, h1, w2, h2} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		a := Rect{Min: []float64{ax, ay}, Max: []float64{ax + math.Abs(w1), ay + math.Abs(h1)}}
		b := Rect{Min: []float64{bx, by}, Max: []float64{bx + math.Abs(w2), by + math.Abs(h2)}}
		return EnlargedArea(a, b) == a.Enlarged(b).Area()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExpandToIncludeMatchesEnlarged(t *testing.T) {
	a := Rect{Min: []float64{0, 0}, Max: []float64{1, 1}}
	b := Rect{Min: []float64{-2, 3}, Max: []float64{0.5, 4}}
	want := a.Enlarged(b)
	got := a.Clone()
	got.ExpandToInclude(b)
	for d := 0; d < 2; d++ {
		if got.Min[d] != want.Min[d] || got.Max[d] != want.Max[d] {
			t.Fatalf("axis %d: %+v vs %+v", d, got, want)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := Rect{Min: []float64{0, 0}, Max: []float64{1, 1}}
	c := a.Clone()
	c.Min[0] = -9
	if a.Min[0] != 0 {
		t.Fatal("clone shares storage")
	}
}

// Slice returns points [lo, hi) as a view sharing storage.
func (p Points) Slice(lo, hi int) Points {
	return Points{Dim: p.Dim, Coords: p.Coords[lo*p.Dim : hi*p.Dim]}
}
