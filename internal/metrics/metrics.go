// Package metrics computes the performance measures the modules teach
// students to reason about: speedup, parallel efficiency, the Karp–Flatt
// experimentally determined serial fraction and the Amdahl fit built on
// it. These back every scaling figure in EXPERIMENTS.md and the Figure 1
// reproduction.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Point is one (cores, time) observation of a scaling experiment.
type Point struct {
	P    int           // process/rank count
	Time time.Duration // wall-clock time at P ranks
}

// Series is a scaling experiment: observations at increasing rank counts.
// The observation at the smallest P (usually 1) is the baseline.
type Series struct {
	Name   string
	Points []Point
}

// sorted returns the points ordered by P.
func (s Series) sorted() []Point {
	pts := append([]Point(nil), s.Points...)
	sort.Slice(pts, func(i, j int) bool { return pts[i].P < pts[j].P })
	return pts
}

// Baseline returns the observation with the smallest rank count.
func (s Series) Baseline() (Point, error) {
	if len(s.Points) == 0 {
		return Point{}, fmt.Errorf("metrics: empty series %q", s.Name)
	}
	return s.sorted()[0], nil
}

// Speedup returns S(p) = T(base)/T(p) for every observation, relative to
// the smallest-P observation scaled to one rank (if the baseline is P=1
// this is classic speedup).
func (s Series) Speedup() ([]float64, error) {
	base, err := s.Baseline()
	if err != nil {
		return nil, err
	}
	if base.Time <= 0 {
		return nil, fmt.Errorf("metrics: non-positive baseline time in %q", s.Name)
	}
	pts := s.sorted()
	out := make([]float64, len(pts))
	for i, pt := range pts {
		if pt.Time <= 0 {
			return nil, fmt.Errorf("metrics: non-positive time at P=%d in %q", pt.P, s.Name)
		}
		out[i] = float64(base.Time) / float64(pt.Time) * float64(base.P)
	}
	return out, nil
}

// Efficiency returns E(p) = S(p)/p for every observation.
func (s Series) Efficiency() ([]float64, error) {
	sp, err := s.Speedup()
	if err != nil {
		return nil, err
	}
	pts := s.sorted()
	out := make([]float64, len(pts))
	for i := range sp {
		out[i] = sp[i] / float64(pts[i].P)
	}
	return out, nil
}

// KarpFlatt returns the experimentally determined serial fraction
// e(p) = (1/S - 1/p) / (1 - 1/p) for every observation with p > 1.
// A rising e(p) diagnoses overhead growth — the signature Module 3 and 4
// students learn to distinguish memory-bound from compute-bound codes.
func (s Series) KarpFlatt() (map[int]float64, error) {
	sp, err := s.Speedup()
	if err != nil {
		return nil, err
	}
	pts := s.sorted()
	out := make(map[int]float64)
	for i, pt := range pts {
		if pt.P <= 1 {
			continue
		}
		p := float64(pt.P)
		out[pt.P] = (1/sp[i] - 1/p) / (1 - 1/p)
	}
	return out, nil
}

// FitAmdahl estimates the serial fraction that best explains the series,
// by least squares over the Karp–Flatt estimates (which are exactly the
// per-point Amdahl inversions).
func (s Series) FitAmdahl() (float64, error) {
	kf, err := s.KarpFlatt()
	if err != nil {
		return 0, err
	}
	if len(kf) == 0 {
		return 0, fmt.Errorf("metrics: series %q has no multi-rank points", s.Name)
	}
	var sum float64
	for _, e := range kf {
		sum += e
	}
	f := sum / float64(len(kf))
	if f < 0 {
		f = 0 // superlinear artifacts clamp to perfectly parallel
	}
	return f, nil
}

// Table renders the series as an aligned text table of time, speedup and
// efficiency — the format students report in the modules.
func (s Series) Table() (string, error) {
	sp, err := s.Speedup()
	if err != nil {
		return "", err
	}
	eff, err := s.Efficiency()
	if err != nil {
		return "", err
	}
	pts := s.sorted()
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%6s %14s %9s %11s\n", s.Name, "p", "time", "speedup", "efficiency")
	for i, pt := range pts {
		fmt.Fprintf(&b, "%6d %14v %9.2f %10.1f%%\n", pt.P, pt.Time.Round(time.Microsecond), sp[i], eff[i]*100)
	}
	return b.String(), nil
}
