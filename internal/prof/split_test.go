package prof

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
)

// split is one rank's compute and communication totals.
type split struct {
	rank          int
	compute, comm time.Duration
}

// splitsOf is the interval-union oracle for Summary's split. It sums the
// derived intervals by kind, so its compute is a rank's span less the
// union of its primitives' intervals, where Summary subtracts their sum;
// the two agree exactly when no event on a rank overlaps another, which
// holds when every event is a call the program made.
func splitsOf(ivs []Interval) []split {
	byRank := make(map[int]*split)
	for _, iv := range ivs {
		s, ok := byRank[iv.Rank]
		if !ok {
			s = &split{rank: iv.Rank}
			byRank[iv.Rank] = s
		}
		switch iv.Kind {
		case Compute:
			s.compute += iv.Dur
		case Comm:
			s.comm += iv.Dur
		}
	}
	out := make([]split, 0, len(byRank))
	for _, s := range byRank {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].rank < out[j].rank })
	return out
}

// summaryOfSplits renders the oracle's splits in SummaryOf's layout.
func summaryOfSplits(splits []split) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %14s %14s %8s\n", "rank", "compute", "comm", "comm%")
	for _, s := range splits {
		frac := 0.0
		if total := s.compute + s.comm; total > 0 {
			frac = float64(s.comm) / float64(total)
		}
		fmt.Fprintf(&b, "%6d %14v %14v %7.1f%%\n",
			s.rank, s.compute.Round(time.Microsecond), s.comm.Round(time.Microsecond), frac*100)
	}
	return b.String()
}

// TestSummarySplitMatchesIntervals runs every registered activity on
// both transports and holds Summary's compute/communication split — the
// one SummaryOf renders — to the interval-union oracle, and every rank's
// time inside primitives to its span. A primitive nested in another
// (a window call reporting its own barrier) breaks both.
func TestSummarySplitMatchesIntervals(t *testing.T) {
	for _, a := range core.All() {
		for _, tcp := range []bool{false, true} {
			name := a.Name + "/channel"
			if tcp {
				name = a.Name + "/tcp"
			}
			t.Run(name, func(t *testing.T) {
				pc := New()
				if _, _, err := a.Launch(0, tcp, mpi.WithHook(pc)); err != nil {
					t.Fatal(err)
				}
				events := pc.Events()
				s := Summarize(events)
				splits := splitsOf(Intervals(events))
				if len(splits) == 0 {
					t.Fatal("no events recorded")
				}
				for _, o := range splits {
					r := o.rank
					if s.CommTime[r] > s.Span[r] {
						t.Errorf("rank %d: %v inside primitives within a %v span", r, s.CommTime[r], s.Span[r])
					}
					if compute := s.Span[r] - s.CommTime[r]; compute != o.compute || s.CommTime[r] != o.comm {
						t.Errorf("rank %d: summary splits compute %v / comm %v, intervals %v / %v",
							r, compute, s.CommTime[r], o.compute, o.comm)
					}
				}
				if got, want := SummaryOf(s), summaryOfSplits(splits); got != want {
					t.Errorf("SummaryOf:\n%s\ninterval oracle:\n%s", got, want)
				}
			})
		}
	}
}
