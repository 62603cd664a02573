// Package trace renders the alternating computation/communication phases
// of a distributed program, the pattern learning outcome 11 of the paper
// asks students to recognize. It records nothing itself: callers hand it
// per-rank intervals (internal/prof derives them from the runtime's hook
// events) and it produces an ASCII Gantt chart, a compute/communication
// time split — which Module 5 uses to show when k-means flips from
// communication-bound (small k) to compute-bound (large k) — and a Chrome
// trace.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Kind labels an interval.
type Kind string

const (
	Compute Kind = "compute"
	Comm    Kind = "comm"
)

// Interval is one traced span on one rank.
type Interval struct {
	Rank  int
	Kind  Kind
	Label string
	Start time.Time
	Dur   time.Duration
}

// Split sums compute and communication time per rank.
type Split struct {
	Rank    int
	Compute time.Duration
	Comm    time.Duration
}

// CommFraction returns comm / (comm + compute), or 0 for an idle rank.
func (s Split) CommFraction() float64 {
	total := s.Compute + s.Comm
	if total == 0 {
		return 0
	}
	return float64(s.Comm) / float64(total)
}

// SplitsOf aggregates per-rank compute/communication totals, sorted by
// rank.
func SplitsOf(ivs []Interval) []Split {
	byRank := make(map[int]*Split)
	for _, iv := range ivs {
		s, ok := byRank[iv.Rank]
		if !ok {
			s = &Split{Rank: iv.Rank}
			byRank[iv.Rank] = s
		}
		switch iv.Kind {
		case Compute:
			s.Compute += iv.Dur
		case Comm:
			s.Comm += iv.Dur
		}
	}
	out := make([]Split, 0, len(byRank))
	for _, s := range byRank {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}

// GanttOf renders an ASCII chart, one row per rank, width columns wide.
// Compute intervals print as '#', communication as '~', idle as '.'.
func GanttOf(ivs []Interval, width int) string {
	if len(ivs) == 0 || width <= 0 {
		return "(no trace)\n"
	}
	start := ivs[0].Start
	end := ivs[0].Start.Add(ivs[0].Dur)
	maxRank := 0
	for _, iv := range ivs {
		if iv.Start.Before(start) {
			start = iv.Start
		}
		if e := iv.Start.Add(iv.Dur); e.After(end) {
			end = e
		}
		if iv.Rank > maxRank {
			maxRank = iv.Rank
		}
	}
	span := end.Sub(start)
	if span <= 0 {
		span = time.Nanosecond
	}
	rows := make([][]byte, maxRank+1)
	for r := range rows {
		rows[r] = []byte(strings.Repeat(".", width))
	}
	for _, iv := range ivs {
		lo := int(float64(iv.Start.Sub(start)) / float64(span) * float64(width))
		hi := int(float64(iv.Start.Add(iv.Dur).Sub(start)) / float64(span) * float64(width))
		if hi <= lo {
			hi = lo + 1
		}
		if hi > width {
			hi = width
		}
		ch := byte('#')
		if iv.Kind == Comm {
			ch = '~'
		}
		for i := lo; i < hi; i++ {
			// Communication never overwrites compute drawn at the same
			// column; compute is the rarer, more informative mark.
			if ch == '~' && rows[iv.Rank][i] == '#' {
				continue
			}
			rows[iv.Rank][i] = ch
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace over %v  (#=compute  ~=comm  .=idle)\n", span.Round(time.Microsecond))
	for r, row := range rows {
		fmt.Fprintf(&b, "rank %2d |%s|\n", r, row)
	}
	return b.String()
}

// SummaryOf renders the per-rank compute/communication split as text.
func SummaryOf(ivs []Interval) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %14s %14s %8s\n", "rank", "compute", "comm", "comm%")
	for _, s := range SplitsOf(ivs) {
		fmt.Fprintf(&b, "%6d %14v %14v %7.1f%%\n",
			s.Rank, s.Compute.Round(time.Microsecond), s.Comm.Round(time.Microsecond), s.CommFraction()*100)
	}
	return b.String()
}
