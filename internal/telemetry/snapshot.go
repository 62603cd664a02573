package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/mpi"
)

// SeriesSnap is one series' state in a snapshot. Values are scaled
// (seconds for duration-backed series). For histograms, Buckets holds
// the upper bounds in seconds, Counts the non-cumulative per-bucket
// tallies with the +Inf bucket last.
type SeriesSnap struct {
	Name    string    `json:"name"`
	Labels  []Label   `json:"labels,omitempty"`
	Kind    string    `json:"kind"`
	Value   float64   `json:"value,omitempty"`
	Buckets []float64 `json:"buckets,omitempty"`
	Counts  []int64   `json:"counts,omitempty"`
	Sum     float64   `json:"sum,omitempty"`
	Count   int64     `json:"count,omitempty"`
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

// RegSnapshot is the marshalable state of one rank's registry.
type RegSnapshot struct {
	Rank   int          `json:"rank"`
	Series []SeriesSnap `json:"series"`
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
			ss.Count = s.count.Load()
		}
		out = append(out, ss)
	}
	return out
}

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

// Merged is rank 0's cross-rank view after the Finalize gather.
type Merged struct {
	Ranks  int
	Series []MergedSeries
	byKey  map[string]*MergedSeries
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

// Gather snapshots this rank's registry and gathers every rank's
// snapshot to root over MPI itself (Gatherv of the marshaled bytes).
// Non-root ranks return (nil, nil); root returns the merged view. Call
// it as the last communication of the program — it is itself a
// collective.
func (s *MPISet) Gather(c *mpi.Comm, root int) (*Merged, error) {
	reg := s.RankRegistry(c.Rank())
	if reg == nil {
		return nil, fmt.Errorf("telemetry: no registry for rank %d", c.Rank())
	}
	series := reg.Snapshot()
	// Fold the process-wide resilience counters into this rank's
	// snapshot so the merged table shows retransmits, injector drops and
	// respawns next to the per-rank series. In-process worlds share one
	// process registry, so every rank column reads the same global value;
	// under a multi-process launch each column is its own process.
	for _, ss := range s.proc.Snapshot() {
		if resilienceSeries[ss.Name] {
			series = append(series, ss)
		}
	}
	b, err := json.Marshal(RegSnapshot{Rank: c.Rank(), Series: series})
	if err != nil {
		return nil, err
	}
	parts, err := mpi.Gatherv(c, b, root)
	if err != nil {
		return nil, err
	}
	if c.Rank() != root {
		return nil, nil
	}
	snaps := make([]RegSnapshot, 0, len(parts))
	for _, p := range parts {
		var rs RegSnapshot
		if err := json.Unmarshal(p, &rs); err != nil {
			return nil, fmt.Errorf("telemetry: bad snapshot from a rank: %w", err)
		}
		snaps = append(snaps, rs)
	}
	return MergeSnapshots(snaps)
}

// MergeSnapshots aligns per-rank snapshots by series key into the
// cross-rank view. Ranks are indexed by their Rank field; a series
// missing on some rank reads as zero there.
func MergeSnapshots(snaps []RegSnapshot) (*Merged, error) {
	maxRank := -1
	for _, s := range snaps {
		if s.Rank < 0 {
			return nil, fmt.Errorf("telemetry: negative rank %d in snapshot", s.Rank)
		}
		if s.Rank > maxRank {
			maxRank = s.Rank
		}
	}
	m := &Merged{Ranks: maxRank + 1, byKey: make(map[string]*MergedSeries)}
	for _, snap := range snaps {
		for _, ss := range snap.Series {
			key := ss.Key()
			ms, ok := m.byKey[key]
			if !ok {
				ms = &MergedSeries{Name: ss.Name, Labels: ss.Labels, Kind: ss.Kind,
					Value: make([]float64, m.Ranks), Sum: make([]float64, m.Ranks)}
				m.byKey[key] = ms
			}
			if ss.Kind == KindHistogram.String() {
				ms.Value[snap.Rank] = float64(ss.Count)
				ms.Sum[snap.Rank] = ss.Sum
			} else {
				ms.Value[snap.Rank] = ss.Value
			}
		}
	}
	keys := make([]string, 0, len(m.byKey))
	for k := range m.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m.Series = append(m.Series, *m.byKey[k])
	}
	return m, nil
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
