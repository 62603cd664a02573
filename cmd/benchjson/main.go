// Command benchjson converts `go test -bench` text output (read from
// stdin) into a deterministic JSON document: benchmarks sorted by name,
// a fixed key order, and no volatile environment noise beyond the
// goos/goarch/cpu header Go itself prints. `make bench` pipes through
// it so the committed BENCH_*.json baselines diff cleanly run to run.
//
// With -compare it reads two such documents instead and prints every
// row's change, failing on the machine-independent columns:
//
//	benchjson -compare old.json new.json
//
// It exits 1 when a row of old.json is missing from new.json, when a
// row's allocs/op rises by more than 5 %, when its B/op rises by more
// than 10 % and by more than 32 KiB, or when a custom unit of an old row
// (b.ReportMetric: params, buckets, events/sec) is missing from the new
// one. ns/op and the custom units' values are printed and never gated:
// they move with the host or are the benchmark's own shape.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Benchmark is one `Benchmark...` result line. Field order here is the
// key order in the output document.
type Benchmark struct {
	Name        string  `json:"name"`
	Procs       int     `json:"procs"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op,omitempty"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Extra holds custom b.ReportMetric units (e.g. "events/sec" from
	// the cluster drain benchmarks). encoding/json emits map keys
	// sorted, so the document stays deterministic.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Doc is the whole converted page.
type Doc struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	compare := flag.Bool("compare", false, "compare two BENCH documents: benchjson -compare old.json new.json")
	flag.Parse()
	if *compare {
		os.Exit(compareFiles(flag.Args()))
	}
	doc, err := Parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// Parse consumes bench text line by line. Unrecognized lines (PASS, ok,
// test chatter interleaved with the benchmarks) are skipped, so the
// converter can sit directly on the `go test` pipe.
func Parse(sc *bufio.Scanner) (*Doc, error) {
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var doc Doc
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			doc.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, ok, err := parseLine(line)
			if err != nil {
				return nil, err
			}
			if ok {
				doc.Benchmarks = append(doc.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines on stdin")
	}
	sort.SliceStable(doc.Benchmarks, func(i, j int) bool {
		return doc.Benchmarks[i].Name < doc.Benchmarks[j].Name
	})
	return &doc, nil
}

// parseLine splits one result line: a name (with the -GOMAXPROCS
// suffix, which Go leaves off exactly when GOMAXPROCS is 1), an
// iteration count, then value/unit pairs.
func parseLine(line string) (Benchmark, bool, error) {
	f := strings.Fields(line)
	if len(f) < 2 {
		return Benchmark{}, false, nil // a name with no results (e.g. subtest header)
	}
	b := Benchmark{Name: f[0], Procs: 1}
	if i := strings.LastIndex(b.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Name, b.Procs = b.Name[:i], p
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, false, nil // "Benchmark..." test-name chatter, not a result
	}
	b.Iterations = iters
	for i := 2; i+1 < len(f); i += 2 {
		val, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, false, fmt.Errorf("bad value %q in %q", f[i], line)
		}
		switch f[i+1] {
		case "ns/op":
			b.NsPerOp = val
		case "MB/s":
			b.MBPerS = val
		case "B/op":
			b.BytesPerOp = int64(val)
		case "allocs/op":
			b.AllocsPerOp = int64(val)
		default: // custom b.ReportMetric units
			if b.Extra == nil {
				b.Extra = make(map[string]float64)
			}
			b.Extra[f[i+1]] = val
		}
	}
	return b, true, nil
}

// The gates. Two `make bench` runs of one commit (two-vCPU Intel Xeon,
// GOMAXPROCS=2) moved allocs/op by at most one, and B/op by up to 22 KiB
// (DDP_Step/overlap-loopback, 21,149 and 43,556 B) on rows under 64 KiB
// and by under 0.01 % on rows above 1 MB. So B/op fails a row only past
// both a relative and an absolute rise, each above that spread.
const (
	allocsPct  = 5        // percent
	bytesPct   = 10       // percent
	bytesSlack = 32 << 10 // bytes
)

// compareFiles is -compare: it reads the two documents named in args,
// prints the comparison and returns the exit code (0 clean, 1 a
// regression, 2 usage or an unreadable file).
func compareFiles(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchjson -compare old.json new.json")
		return 2
	}
	var docs [2]Doc
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &docs[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			return 2
		}
	}
	if bad := Compare(os.Stdout, &docs[0], &docs[1]); len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d regression(s): %s\n", len(bad), strings.Join(bad, "; "))
		return 1
	}
	return 0
}

// Compare matches the rows of two documents by name and writes one line
// per row, old -> new with the change in percent for ns/op, B/op,
// allocs/op and every custom unit. It returns the regressions: a row of
// old that new lacks, allocs/op up by more than allocsPct percent (from
// zero, any rise), B/op up by more than bytesPct percent and bytesSlack
// bytes, a custom unit of the old row that the new row lacks. A row or
// unit only new has is listed and passes.
func Compare(w io.Writer, old, new *Doc) []string {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	defer tw.Flush()
	newRows := make(map[string]Benchmark, len(new.Benchmarks))
	for _, b := range new.Benchmarks {
		newRows[b.Name] = b
	}
	var bad []string
	for _, o := range old.Benchmarks {
		n, ok := newRows[o.Name]
		if !ok {
			fmt.Fprintf(tw, "%s\tMISSING\n", o.Name)
			bad = append(bad, o.Name+": missing")
			continue
		}
		delete(newRows, o.Name)
		verdict := "ok"
		if rise(o.AllocsPerOp, n.AllocsPerOp, allocsPct, 0) {
			verdict = "FAIL"
			bad = append(bad, fmt.Sprintf("%s: allocs/op %d -> %d", o.Name, o.AllocsPerOp, n.AllocsPerOp))
		}
		if rise(o.BytesPerOp, n.BytesPerOp, bytesPct, bytesSlack) {
			verdict = "FAIL"
			bad = append(bad, fmt.Sprintf("%s: B/op %d -> %d", o.Name, o.BytesPerOp, n.BytesPerOp))
		}
		var extra strings.Builder
		for _, u := range units(o.Extra, n.Extra) {
			ov, inOld := o.Extra[u]
			nv, inNew := n.Extra[u]
			switch {
			case !inNew:
				verdict = "FAIL"
				bad = append(bad, fmt.Sprintf("%s: %s missing", o.Name, u))
				fmt.Fprintf(&extra, "\t%s MISSING", u)
			case !inOld:
				fmt.Fprintf(&extra, "\t%s new %s", u, strconv.FormatFloat(nv, 'f', -1, 64))
			default:
				fmt.Fprintf(&extra, "\t%s %s", u, delta(ov, nv))
			}
		}
		fmt.Fprintf(tw, "%s\tns/op %s\tB/op %s\tallocs/op %s\t%s%s\n", o.Name,
			delta(o.NsPerOp, n.NsPerOp), delta(float64(o.BytesPerOp), float64(n.BytesPerOp)),
			delta(float64(o.AllocsPerOp), float64(n.AllocsPerOp)), verdict, extra.String())
	}
	for _, b := range new.Benchmarks {
		if _, ok := newRows[b.Name]; ok {
			fmt.Fprintf(tw, "%s\tnew\n", b.Name)
		}
	}
	return bad
}

// units returns the custom units of two rows, sorted.
func units(o, n map[string]float64) []string {
	var us []string
	for u := range o {
		us = append(us, u)
	}
	for u := range n {
		if _, ok := o[u]; !ok {
			us = append(us, u)
		}
	}
	sort.Strings(us)
	return us
}

// rise reports whether n exceeds o by more than pct percent of o and by
// more than slack.
func rise(o, n int64, pct float64, slack int64) bool {
	return n-o > slack && float64(n-o) > float64(o)*pct/100
}

// delta formats old -> new and the change in percent.
func delta(o, n float64) string {
	s := strconv.FormatFloat(o, 'f', -1, 64) + " -> " + strconv.FormatFloat(n, 'f', -1, 64)
	if o != 0 {
		s += fmt.Sprintf(" (%+.1f%%)", 100*(n-o)/o)
	}
	return s
}
