package main

import (
	"bufio"
	"encoding/json"
	"io"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Example CPU @ 2.00GHz
BenchmarkZeta/large-8         	     100	   1234.5 ns/op	 512.3 MB/s	      64 B/op	       2 allocs/op
BenchmarkAlpha-8              	 5000000	      35.33 ns/op	       0 B/op	       0 allocs/op
BenchmarkDrain/jobs=10k-8     	       5	 214748364 ns/op	    532199 events/sec	    4096 B/op	      12 allocs/op
PASS
ok  	repro	1.234s
`

func TestParseDeterministic(t *testing.T) {
	doc, err := Parse(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(doc.Benchmarks))
	}
	// Sorted by name regardless of input order.
	if doc.Benchmarks[0].Name != "BenchmarkAlpha" || doc.Benchmarks[2].Name != "BenchmarkZeta/large" {
		t.Fatalf("order: %q, %q", doc.Benchmarks[0].Name, doc.Benchmarks[2].Name)
	}
	// Custom ReportMetric units land in extra.
	d := doc.Benchmarks[1]
	if d.Name != "BenchmarkDrain/jobs=10k" || d.Extra["events/sec"] != 532199 {
		t.Fatalf("custom metric parsed as %+v", d)
	}
	z := doc.Benchmarks[2]
	if z.Procs != 8 || z.Iterations != 100 || z.NsPerOp != 1234.5 || z.MBPerS != 512.3 ||
		z.BytesPerOp != 64 || z.AllocsPerOp != 2 {
		t.Fatalf("zeta parsed as %+v", z)
	}
	if doc.CPU != "Example CPU @ 2.00GHz" || doc.Pkg != "repro" {
		t.Fatalf("header parsed as %+v", doc)
	}

	// Marshaling twice yields identical bytes: stable key order.
	a, _ := json.Marshal(doc)
	b, _ := json.Marshal(doc)
	if string(a) != string(b) {
		t.Fatal("marshaling is not deterministic")
	}
	want := `"name":"BenchmarkAlpha","procs":8,"iterations":5000000,"ns_per_op":35.33,"bytes_per_op":0,"allocs_per_op":0`
	if !strings.Contains(string(a), want) {
		t.Fatalf("key order drifted:\n%s", a)
	}
}

// TestParseProcsWithoutSuffix pins that a result line with no
// -GOMAXPROCS suffix came from a single-proc run, not a zero-proc one.
func TestParseProcsWithoutSuffix(t *testing.T) {
	const line = "BenchmarkDrain/jobs=10k     	       5	 214748364 ns/op	    4096 B/op	      12 allocs/op\n"
	doc, err := Parse(bufio.NewScanner(strings.NewReader(line)))
	if err != nil {
		t.Fatal(err)
	}
	if b := doc.Benchmarks[0]; b.Name != "BenchmarkDrain/jobs=10k" || b.Procs != 1 {
		t.Fatalf("parsed as %+v, want the full name and procs 1", b)
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := Parse(bufio.NewScanner(strings.NewReader("PASS\n"))); err == nil {
		t.Fatal("expected an error for input with no benchmarks")
	}
}

// TestCompare holds the comparator's gates on inline fixtures: one old
// row against one new row per case (no new row: missing).
func TestCompare(t *testing.T) {
	old := Benchmark{Name: "BenchmarkX", NsPerOp: 1000, BytesPerOp: 1 << 20, AllocsPerOp: 100}
	for _, tc := range []struct {
		name string
		new  []Benchmark
		fail bool
	}{
		{"identical", []Benchmark{old}, false},
		{"ns/op doubles: printed, not gated", []Benchmark{{Name: "BenchmarkX", NsPerOp: 2000, BytesPerOp: 1 << 20, AllocsPerOp: 100}}, false},
		{"allocs/op up 5%", []Benchmark{{Name: "BenchmarkX", BytesPerOp: 1 << 20, AllocsPerOp: 105}}, false},
		{"allocs/op up 6%", []Benchmark{{Name: "BenchmarkX", BytesPerOp: 1 << 20, AllocsPerOp: 106}}, true},
		{"allocs/op down", []Benchmark{{Name: "BenchmarkX", BytesPerOp: 1 << 20, AllocsPerOp: 10}}, false},
		{"B/op up 10%", []Benchmark{{Name: "BenchmarkX", BytesPerOp: 1<<20 + 1<<20/10, AllocsPerOp: 100}}, false},
		{"B/op up 11%", []Benchmark{{Name: "BenchmarkX", BytesPerOp: 1<<20 + 1<<20/9, AllocsPerOp: 100}}, true},
		{"B/op down", []Benchmark{{Name: "BenchmarkX", BytesPerOp: 1, AllocsPerOp: 100}}, false},
		{"row missing", []Benchmark{{Name: "BenchmarkY", BytesPerOp: 1 << 20, AllocsPerOp: 100}}, true},
		{"row added", []Benchmark{old, {Name: "BenchmarkY", BytesPerOp: 9e9, AllocsPerOp: 9e9}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			bad := Compare(&out, &Doc{Benchmarks: []Benchmark{old}}, &Doc{Benchmarks: tc.new})
			if (len(bad) > 0) != tc.fail {
				t.Fatalf("regressions %q, want failure %v; printed:\n%s", bad, tc.fail, out.String())
			}
			if !strings.Contains(out.String(), "BenchmarkX") {
				t.Fatalf("BenchmarkX not printed:\n%s", out.String())
			}
		})
	}

	// Custom units are printed old -> new and never gated on their
	// value; one the old row has and the new row lacks fails.
	shaped := &Doc{Benchmarks: []Benchmark{{Name: "BenchmarkS", Extra: map[string]float64{"buckets": 13, "params": 192016}}}}
	for _, tc := range []struct {
		name  string
		extra map[string]float64
		want  []string // printed
		fail  bool
	}{
		{"unchanged", map[string]float64{"buckets": 13, "params": 192016}, []string{"buckets 13 -> 13 (+0.0%)", "params 192016 -> 192016 (+0.0%)"}, false},
		{"value moves", map[string]float64{"buckets": 26, "params": 192016}, []string{"buckets 13 -> 26 (+100.0%)"}, false},
		{"unit added", map[string]float64{"buckets": 13, "params": 192016, "events/sec": 5}, []string{"events/sec new 5"}, false},
		{"unit missing", map[string]float64{"params": 192016}, []string{"buckets MISSING"}, true},
		{"all units missing", nil, []string{"buckets MISSING", "params MISSING"}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			bad := Compare(&out, shaped, &Doc{Benchmarks: []Benchmark{{Name: "BenchmarkS", Extra: tc.extra}}})
			if (len(bad) > 0) != tc.fail {
				t.Fatalf("regressions %q, want failure %v; printed:\n%s", bad, tc.fail, out.String())
			}
			for _, w := range tc.want {
				if !strings.Contains(out.String(), w) {
					t.Fatalf("%q not printed:\n%s", w, out.String())
				}
			}
		})
	}

	// On a small row B/op must also rise past the absolute slack: the
	// same commit moves such rows by tens of percent. allocs/op has no
	// slack: from zero, any rise fails.
	small := &Doc{Benchmarks: []Benchmark{{Name: "BenchmarkZ", BytesPerOp: 20_000}}}
	for _, tc := range []struct {
		bytes, allocs int64
		want          int
	}{{40_000, 0, 0}, {60_000, 0, 1}, {20_000, 1, 1}} {
		if bad := Compare(io.Discard, small, &Doc{Benchmarks: []Benchmark{{Name: "BenchmarkZ", BytesPerOp: tc.bytes, AllocsPerOp: tc.allocs}}}); len(bad) != tc.want {
			t.Fatalf("20,000 B and 0 allocs -> %d B and %d allocs: regressions %q, want %d", tc.bytes, tc.allocs, bad, tc.want)
		}
	}
}
