package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/data"
	"repro/internal/metrics"
	"repro/internal/modules/distmatrix"
	"repro/internal/modules/distsort"
	"repro/internal/modules/kmeans"
	"repro/internal/mpi"
)

// ScalingStudy runs an activity at each rank count and assembles the
// strong-scaling series — the experiment every module asks students to
// perform ("examine how various algorithm components scale as a function
// of the number of process ranks", learning outcome 8). Each point is the
// median of reps runs to damp scheduler noise.
func ScalingStudy(a Activity, rankCounts []int, reps int, tcp bool) (metrics.Series, error) {
	return study(a.Name, rankCounts, reps, tcp, func(int) Activity { return a })
}

// study is the loop both scaling studies run: at each rank count it
// builds the activity and records the median wall time of reps launches.
func study(name string, rankCounts []int, reps int, tcp bool, build func(np int) Activity) (metrics.Series, error) {
	if reps <= 0 {
		reps = 3
	}
	series := metrics.Series{Name: name}
	for _, np := range rankCounts {
		if np <= 0 {
			return metrics.Series{}, fmt.Errorf("core: rank count %d", np)
		}
		a := build(np)
		times := make([]time.Duration, 0, reps)
		for rep := 0; rep < reps; rep++ {
			start := time.Now()
			if _, _, err := a.Launch(np, tcp); err != nil {
				return metrics.Series{}, fmt.Errorf("core: %s at np=%d: %w", name, np, err)
			}
			times = append(times, time.Since(start))
		}
		series.Points = append(series.Points, metrics.Point{P: np, Time: median(times)})
	}
	return series, nil
}

// median of a small duration sample (insertion sort; reps is tiny).
func median(ts []time.Duration) time.Duration {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
	return ts[len(ts)/2]
}

// ScalingReport renders the series with speedup, efficiency and the
// Karp–Flatt serial-fraction estimate — the table students submit.
func ScalingReport(s metrics.Series) (string, error) {
	out, err := s.Table()
	if err != nil {
		return "", err
	}
	f, err := s.FitAmdahl()
	if err != nil {
		// Single-point series have no multi-rank observations; the
		// table alone is the report.
		return out, nil
	}
	limit := "unbounded"
	if f > 1e-9 {
		limit = fmt.Sprintf("%.1fx", 1/f)
	}
	out += fmt.Sprintf("Karp–Flatt serial fraction: %.3f (Amdahl limit %s)\n", f, limit)
	return out, nil
}

// SizedActivity builds workloads that grow with the rank count, for weak
// scaling: per-rank work stays constant as p grows, so ideal time is flat
// (Gustafson's regime, complementing ScalingStudy's strong scaling).
type SizedActivity struct {
	Name        string
	Description string
	// Build returns the activity instance for np ranks, with total work
	// proportional to np.
	Build func(np int) Activity
}

// SizedRegistry returns the weak-scaling workloads: one per computational
// module.
func SizedRegistry() []SizedActivity {
	return []SizedActivity{
		{
			Name:        "distance-matrix",
			Description: "distance matrix with 64 rows per rank (90-d points)",
			Build: func(np int) Activity {
				pts := data.UniformPoints(64*np, distmatrix.DefaultDim, 0, 1, 42)
				return Activity{
					Module: 2, Name: "distance-matrix-weak", DefaultNP: np,
					Run: func(c *mpi.Comm) (string, error) {
						res, err := distmatrix.Distributed(c, pts, distmatrix.DefaultTile)
						if err != nil {
							return "", err
						}
						return fmt.Sprintf("N=%d", res.N), nil
					},
				}
			},
		},
		{
			Name:        "distribution-sort",
			Description: "bucket sort with 100k keys per rank",
			Build: func(np int) Activity {
				keys := data.UniformKeys(100_000*np, 0, 1000, 11)
				return Activity{
					Module: 3, Name: "sort-weak", DefaultNP: np,
					Run: sortActivity(keys, distsort.EqualWidth),
				}
			},
		},
		{
			Name:        "kmeans",
			Description: "k-means with 4096 points per rank (k=8, 10 iterations)",
			Build: func(np int) Activity {
				pts, _ := data.GaussianMixture(4096*np, 2, 8, 1.0, 100, 31)
				return Activity{
					Module: 5, Name: "kmeans-weak", DefaultNP: np,
					Run: func(c *mpi.Comm) (string, error) {
						res, _, _, err := kmeans.Distributed(c, pts, kmeans.Config{
							K: 8, MaxIter: 10, Seed: 2, Tol: -1,
						})
						if err != nil {
							return "", err
						}
						return fmt.Sprintf("%d iters", res.Iterations), nil
					},
				}
			},
		},
	}
}

// FindSized returns the sized workload with the given name.
func FindSized(name string) (SizedActivity, bool) {
	for _, sa := range SizedRegistry() {
		if sa.Name == name {
			return sa, true
		}
	}
	return SizedActivity{}, false
}

// WeakScalingStudy measures the sized workload at each rank count (work
// per rank held constant) and returns the series. Weak efficiency is
// T(base)/T(p): 100% means perfect Gustafson scaling.
func WeakScalingStudy(sa SizedActivity, rankCounts []int, reps int, tcp bool) (metrics.Series, error) {
	return study(sa.Name+" (weak)", rankCounts, reps, tcp, sa.Build)
}

// WeakScalingReport renders the weak-scaling series: time per rank count
// and weak efficiency against the smallest measured rank count.
func WeakScalingReport(s metrics.Series) (string, error) {
	base, err := s.Baseline()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%6s %14s %16s\n", s.Name, "p", "time", "weak efficiency")
	for _, pt := range s.Points {
		eff := float64(base.Time) / float64(pt.Time)
		fmt.Fprintf(&b, "%6d %14v %15.1f%%\n", pt.P, pt.Time.Round(time.Microsecond), eff*100)
	}
	b.WriteString("ideal weak scaling holds time flat as ranks (and total work) grow\n")
	return b.String(), nil
}
