package metrics

import (
	"math"
	"strings"
	"testing"
	"time"
)

func linear(name string, ps ...int) Series {
	s := Series{Name: name}
	for _, p := range ps {
		s.Points = append(s.Points, Point{P: p, Time: time.Duration(1e9 / p)})
	}
	return s
}

func TestSpeedupLinearScaling(t *testing.T) {
	s := linear("ideal", 1, 2, 4, 8)
	sp, err := s.Speedup()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if math.Abs(sp[i]-want[i]) > 1e-6 {
			t.Fatalf("speedup %v, want %v", sp, want)
		}
	}
	eff, err := s.Efficiency()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range eff {
		if math.Abs(e-1) > 1e-6 {
			t.Fatalf("efficiency %v, want all 1", eff)
		}
	}
}

func TestSpeedupUnsortedInput(t *testing.T) {
	s := Series{Name: "x", Points: []Point{
		{P: 8, Time: 125 * time.Millisecond},
		{P: 1, Time: time.Second},
		{P: 4, Time: 250 * time.Millisecond},
	}}
	sp, err := s.Speedup()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sp[0]-1) > 1e-9 || math.Abs(sp[1]-4) > 1e-9 || math.Abs(sp[2]-8) > 1e-9 {
		t.Fatalf("speedup %v", sp)
	}
}

func TestSpeedupErrors(t *testing.T) {
	if _, err := (Series{}).Speedup(); err == nil {
		t.Fatal("empty series accepted")
	}
	bad := Series{Points: []Point{{P: 1, Time: 0}}}
	if _, err := bad.Speedup(); err == nil {
		t.Fatal("zero time accepted")
	}
}

func TestKarpFlattConstantForAmdahl(t *testing.T) {
	// Build a series that follows Amdahl's law exactly with f = 0.1;
	// Karp–Flatt must recover f at every p.
	const f = 0.1
	s := Series{Name: "amdahl"}
	for _, p := range []int{1, 2, 4, 8, 16} {
		tm := time.Duration(float64(time.Second) * (f + (1-f)/float64(p)))
		s.Points = append(s.Points, Point{P: p, Time: tm})
	}
	kf, err := s.KarpFlatt()
	if err != nil {
		t.Fatal(err)
	}
	for p, e := range kf {
		if math.Abs(e-f) > 1e-6 {
			t.Fatalf("Karp–Flatt at p=%d: %v, want %v", p, e, f)
		}
	}
	fit, err := s.FitAmdahl()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit-f) > 1e-6 {
		t.Fatalf("FitAmdahl %v, want %v", fit, f)
	}
}

func TestTableRendering(t *testing.T) {
	s := linear("demo", 1, 2)
	tbl, err := s.Table()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl, "demo") || !strings.Contains(tbl, "speedup") {
		t.Fatalf("table missing headers:\n%s", tbl)
	}
}

func TestBaselineNotP1(t *testing.T) {
	// When the smallest measured P is 2, speedup is normalized so S(2)=2:
	// strong-scaling plots that start above one rank, as in Module 4.
	s := Series{Points: []Point{{P: 2, Time: time.Second}, {P: 4, Time: 500 * time.Millisecond}}}
	sp, err := s.Speedup()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sp[0]-2) > 1e-9 || math.Abs(sp[1]-4) > 1e-9 {
		t.Fatalf("normalized speedup %v", sp)
	}
}
