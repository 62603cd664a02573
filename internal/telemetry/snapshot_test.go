package telemetry

import "strings"

// SeriesSnap is one series' state in a snapshot, the tests' flat view of
// a registry. Values are scaled (seconds for duration-backed series).
// For histograms, Buckets holds the upper bounds in seconds, Counts the
// non-cumulative per-bucket tallies with the +Inf bucket last.
type SeriesSnap struct {
	Name    string
	Labels  []Label
	Kind    string
	Value   float64
	Buckets []float64
	Counts  []int64
	Sum     float64
	Count   int64
}

// Key identifies the series across ranks (name plus label signature).
func (s SeriesSnap) Key() string {
	if len(s.Labels) == 0 {
		return s.Name
	}
	parts := make([]string, len(s.Labels))
	for i, l := range s.Labels {
		parts[i] = l.Key + "=" + l.Value
	}
	return s.Name + "{" + strings.Join(parts, ",") + "}"
}

// Snapshot captures the registry's current state in deterministic
// (name, label) order.
func (r *Registry) Snapshot() []SeriesSnap {
	all := r.sorted()
	out := make([]SeriesSnap, 0, len(all))
	for _, s := range all {
		ss := SeriesSnap{Name: s.name, Labels: s.labels, Kind: s.kind.String()}
		switch s.kind {
		case KindCounter, KindGauge:
			ss.Value = s.value()
		case KindHistogram:
			ss.Buckets = make([]float64, len(s.bounds))
			for i, b := range s.bounds {
				ss.Buckets[i] = float64(b) / s.scale
			}
			ss.Counts = make([]int64, len(s.counts))
			for i := range s.counts {
				ss.Counts[i] = s.counts[i].Load()
			}
			ss.Sum = float64(s.sum.Load()) / s.scale
			ss.Count = Histogram{s}.Count()
		}
		out = append(out, ss)
	}
	return out
}
