package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WritePrometheus renders the registries in the Prometheus text
// exposition format (version 0.0.4): one `# HELP` and `# TYPE` pair per
// family followed by its samples, families in lexical order, histograms
// expanded into cumulative `_bucket{le=...}` plus `_sum`/`_count`.
// Registries must have disjoint family names (per-rank and process
// registries do by construction).
func WritePrometheus(w io.Writer, regs ...*Registry) error {
	bw := bufio.NewWriter(w)
	for _, r := range regs {
		if r == nil {
			continue
		}
		all := r.sorted()
		prevFamily := ""
		for _, s := range all {
			if s.name != prevFamily {
				fmt.Fprintf(bw, "# HELP %s %s\n", s.name, escapeHelp(s.help))
				fmt.Fprintf(bw, "# TYPE %s %s\n", s.name, s.kind)
				prevFamily = s.name
			}
			writeSeries(bw, s)
		}
	}
	return bw.Flush()
}

// writeSeries renders one series' sample lines.
func writeSeries(w io.Writer, s *series) {
	switch s.kind {
	case KindCounter, KindGauge:
		fmt.Fprintf(w, "%s%s %s\n", s.name, renderLabels(s.labels, "", 0), fmtFloat(s.value()))
	case KindHistogram:
		cum := int64(0)
		for i, b := range s.bounds {
			cum += s.counts[i].Load()
			le := fmtFloat(float64(b) / s.scale)
			fmt.Fprintf(w, "%s_bucket%s %d\n", s.name, renderLabels(s.labels, le, 1), cum)
		}
		cum += s.counts[len(s.bounds)].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", s.name, renderLabels(s.labels, "+Inf", 1), cum)
		fmt.Fprintf(w, "%s_sum%s %s\n", s.name, renderLabels(s.labels, "", 0), fmtFloat(float64(s.sum.Load())/s.scale))
		// _count is the +Inf bucket just written, so a page taken while
		// ranks observe stays consistent.
		fmt.Fprintf(w, "%s_count%s %d\n", s.name, renderLabels(s.labels, "", 0), cum)
	}
}

// renderLabels formats the label set; mode 1 appends an `le` label with
// the given value (for histogram buckets).
func renderLabels(labels []Label, le string, mode int) string {
	if len(labels) == 0 && mode == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	if mode == 1 {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double-quote and newline.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// escapeHelp escapes HELP text: backslash and newline only (quotes are
// legal there).
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// fmtFloat renders a sample value the way Prometheus clients do: shortest
// representation that round-trips.
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
