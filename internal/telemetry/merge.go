package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// MergedSeries is one series' values across all ranks. For histograms
// Value carries the per-rank observation count and Sum the per-rank sum
// of observations (seconds).
type MergedSeries struct {
	Name   string
	Labels []Label
	Kind   string
	Value  []float64 // indexed by rank
	Sum    []float64 // histograms only
}

// Merged is the cross-rank view of one run, built by MPISet.Merge.
type Merged struct {
	Ranks int
	byKey map[string]*MergedSeries
}

// Merge builds the cross-rank view from the registries in place: every
// rank's series, plus the process-wide resilience counters, which read
// the same in every rank column (one process registry serves the whole
// world). Call it after the run returns. The merge sends nothing, so the
// run's accounting and profile hold only what the program did.
func (s *MPISet) Merge() *Merged {
	m := &Merged{Ranks: len(s.ranks), byKey: make(map[string]*MergedSeries)}
	add := func(r int, ser *series) {
		key := ser.id()
		ms, ok := m.byKey[key]
		if !ok {
			ms = &MergedSeries{Name: ser.name, Labels: ser.labels, Kind: ser.kind.String(),
				Value: make([]float64, m.Ranks), Sum: make([]float64, m.Ranks)}
			m.byKey[key] = ms
		}
		if ser.kind == KindHistogram {
			ms.Value[r] = float64(Histogram{ser}.Count())
			ms.Sum[r] = float64(ser.sum.Load()) / ser.scale
		} else {
			ms.Value[r] = ser.value()
		}
	}
	for r, rm := range s.ranks {
		for _, ser := range rm.reg.sorted() {
			add(r, ser)
		}
	}
	for _, ser := range s.proc.sorted() {
		if resilienceSeries[ser.name] {
			for r := range s.ranks {
				add(r, ser)
			}
		}
	}
	return m
}

// id is the series' name and labels as the merged view keys and prints
// them: "name" or "name{k=v,...}".
func (s *series) id() string {
	if len(s.labels) == 0 {
		return s.name
	}
	parts := make([]string, len(s.labels))
	for i, l := range s.labels {
		parts[i] = l.Key + "=" + l.Value
	}
	return s.name + "{" + strings.Join(parts, ",") + "}"
}

// Lookup returns the merged series with the given key ("name" or
// "name{k=v,...}"), or nil.
func (m *Merged) Lookup(key string) *MergedSeries {
	return m.byKey[key]
}

// Stats condenses a merged series into min/max/mean and the owning
// ranks.
type Stats struct {
	Min, Max, Mean   float64
	MinRank, MaxRank int
	Imbalance        float64 // (max-mean)/mean; 0 when mean is 0
}

// Stats computes the per-rank spread of s.Value.
func (s *MergedSeries) Stats() Stats {
	st := Stats{Min: math.Inf(1), Max: math.Inf(-1), MinRank: -1, MaxRank: -1}
	if len(s.Value) == 0 {
		return Stats{}
	}
	var total float64
	for r, v := range s.Value {
		total += v
		if v < st.Min {
			st.Min, st.MinRank = v, r
		}
		if v > st.Max {
			st.Max, st.MaxRank = v, r
		}
	}
	st.Mean = total / float64(len(s.Value))
	if st.Mean != 0 {
		st.Imbalance = (st.Max - st.Mean) / st.Mean
	}
	return st
}

// BlockedSeconds returns the per-rank mpi_blocked_seconds_total values,
// or nil if the series was not collected.
func (m *Merged) BlockedSeconds() []float64 {
	if s := m.Lookup("mpi_blocked_seconds_total"); s != nil {
		return s.Value
	}
	return nil
}

// Straggler identifies the rank the others waited on: with everyone
// meeting in collectives, the slowest worker is the one that spent the
// LEAST time blocked (it arrives last and never waits). Returns rank -1
// when blocked time was not collected or is all zero.
func (m *Merged) Straggler() (rank int, blocked float64, imbalance float64) {
	vals := m.BlockedSeconds()
	if len(vals) == 0 {
		return -1, 0, 0
	}
	st := (&MergedSeries{Value: vals}).Stats()
	if st.Max == 0 {
		return -1, 0, 0
	}
	if st.Mean != 0 {
		imbalance = (st.Max - st.Min) / st.Mean
	}
	return st.MinRank, st.Min, imbalance
}

// Table renders the merged cross-rank table for series whose spread is
// interesting: nonzero somewhere, with min/max/mean/imbalance and the
// extreme ranks. topN bounds the rows (0 = all), ordered by imbalance
// descending then name.
func (m *Merged) Table(topN int) string {
	type row struct {
		key string
		st  Stats
	}
	var rows []row
	for k, ms := range m.byKey {
		st := ms.Stats()
		if st.Max == 0 && st.Min == 0 {
			continue
		}
		rows = append(rows, row{k, st})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].st.Imbalance != rows[j].st.Imbalance {
			return rows[i].st.Imbalance > rows[j].st.Imbalance
		}
		return rows[i].key < rows[j].key
	})
	if topN > 0 && len(rows) > topN {
		// The resilience counters are process-global (zero imbalance), so
		// they sort last — but on a lossy run they are the story. Exempt
		// them from the cut instead of letting per-rank spread crowd them
		// out.
		kept := rows[:topN:topN]
		for _, r := range rows[topN:] {
			if resilienceSeries[r.key] {
				kept = append(kept, r)
			}
		}
		rows = kept
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-52s %12s %12s %12s %9s\n", "series", "min", "max", "mean", "imbal")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-52s %12.4g %12.4g %12.4g %8.1f%%\n",
			truncKey(r.key, 52), r.st.Min, r.st.Max, r.st.Mean, r.st.Imbalance*100)
	}
	return b.String()
}

// StragglerReport renders the built-in straggler detector's verdict,
// cross-linking the profiler's wait-state view of the same run.
func (m *Merged) StragglerReport() string {
	rank, blocked, imb := m.Straggler()
	if rank < 0 {
		return "straggler detector: no blocked time recorded\n"
	}
	return fmt.Sprintf("straggler detector: rank %d blocked least (%.4gs; blocked-time spread %.1f%% of mean) — the rank the others waited on.\ncross-check: the wait-state report (mpirun -profile) attributes the same lost time by primitive and peer.\n",
		rank, blocked, imb*100)
}

// truncKey shortens long series keys for table rendering.
func truncKey(k string, n int) string {
	if len(k) <= n {
		return k
	}
	return k[:n-1] + "…"
}
