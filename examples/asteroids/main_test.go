package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/modules/rangequery"
)

// TestRunMethodsAgree runs the example and requires every method it
// compares to print a line with the same total hit count. Timings are
// not checked.
func TestRunMethodsAgree(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	hits := make(map[string]int64)
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || f[2] != "hits" {
			continue
		}
		n, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			t.Fatalf("hit count in %q: %v", line, err)
		}
		hits[f[0]] = n
	}
	want, ok := hits[rangequery.BruteForce.String()]
	if !ok || want == 0 {
		t.Fatalf("no brute-force hits in output:\n%s", out.String())
	}
	for _, m := range []rangequery.Method{rangequery.RTree, rangequery.RTreeSTR} {
		got, ok := hits[m.String()]
		if !ok {
			t.Fatalf("%v missing from output:\n%s", m, out.String())
		}
		if got != want {
			t.Errorf("%v reports %d hits, brute force %d", m, got, want)
		}
	}
}
