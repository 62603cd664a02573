// Command benchjson converts `go test -bench` text output (read from
// stdin) into a deterministic JSON document: benchmarks sorted by name,
// a fixed key order, and no volatile environment noise beyond the
// goos/goarch/cpu header Go itself prints. `make bench` pipes through
// it so the committed BENCH_*.json baselines diff cleanly run to run.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
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
