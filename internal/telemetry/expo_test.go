package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got against testdata/<name> (run with -update to
// regenerate).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// expoFixture builds a registry exercising every exposition feature:
// escaping, multiple series per family, func-backed values, duration
// scaling and histogram rendering.
func expoFixture() *Registry {
	reg := NewRegistry()
	c := reg.Counter("fixture_requests_total", "Requests with \"quotes\", back\\slash and\nnewline.", L("path", `a"b\c`+"\n"), L("verb", "GET"))
	c.Add(3)
	reg.Counter("fixture_requests_total", "Requests with \"quotes\", back\\slash and\nnewline.", L("path", "/plain"), L("verb", "PUT")).Inc()
	g := reg.Gauge("fixture_depth", "Current depth.")
	g.Set(-2)
	reg.GaugeFunc("fixture_fn", "Func-backed gauge.", func() int64 { return 11 })
	d := reg.DurationCounter("fixture_busy_seconds_total", "Busy time.")
	d.Add(int64(1500 * time.Millisecond))
	h := reg.Histogram("fixture_latency_seconds", "Latency.", []time.Duration{time.Microsecond, time.Millisecond, time.Second}, L("op", "put"))
	h.Observe(800 * time.Nanosecond)
	h.Observe(time.Microsecond)
	h.Observe(30 * time.Millisecond)
	h.Observe(5 * time.Second)
	return reg
}

// TestPrometheusGolden pins the exposition byte-for-byte and requires
// the built-in linter to accept it — the endpoint's scrape-clean
// contract.
func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, expoFixture()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "expo.golden", buf.Bytes())
	if err := Lint(buf.Bytes()); err != nil {
		t.Fatalf("golden exposition fails lint: %v", err)
	}
}

// TestPrometheusMPISetLints renders a full per-rank + process instrument
// set (the exact page /metrics serves) and lints it.
func TestPrometheusMPISetLints(t *testing.T) {
	set := NewMPISet(2)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, set.RankRegistry(0), set.ProcessRegistry()); err != nil {
		t.Fatal(err)
	}
	if err := Lint(buf.Bytes()); err != nil {
		t.Fatalf("MPISet exposition fails lint: %v\npage:\n%s", err, buf.Bytes())
	}
	for _, want := range []string{
		`mpi_calls_total{prim="MPI_Send"}`,
		`mpi_latency_seconds_bucket{prim="MPI_Put",le="+Inf"}`,
		"# TYPE mpi_latency_seconds histogram",
		"mpi_pool_hits_total",
		"mpi_heartbeats_sent_total",
		`mpi_lifecycle_total{kind="checkpoint"}`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestPageLintsWhileObserving writes pages while another goroutine
// observes into the histogram they render — what a mid-run scrape of a
// rank sees. Every page must lint: its _count equals its +Inf bucket.
func TestPageLintsWhileObserving(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("live_seconds", "Observed while scraped.", nil)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				h.Observe(time.Duration(i%2000) * time.Microsecond)
			}
		}
	}()
	defer func() { close(stop); <-done }()
	for h.Count() == 0 {
		runtime.Gosched()
	}
	var buf bytes.Buffer
	for i := 0; i < 500; i++ {
		buf.Reset()
		if err := WritePrometheus(&buf, reg); err != nil {
			t.Fatal(err)
		}
		if err := Lint(buf.Bytes()); err != nil {
			t.Fatalf("page %d fails lint: %v\n%s", i, err, buf.Bytes())
		}
	}
}

// TestLintRejectsMalformed feeds the linter the failure shapes it
// exists to catch.
func TestLintRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		page string
	}{
		{"sample without TYPE", "orphan_total 3\n"},
		{"duplicate TYPE", "# TYPE a counter\n# TYPE a counter\na 1\n"},
		{"TYPE after samples", "# TYPE a counter\na 1\n# HELP a again\n"},
		{"negative counter", "# TYPE a counter\na -1\n"},
		{"bad label escape", "# TYPE a counter\na{x=\"\\q\"} 1\n"},
		{"unquoted label", "# TYPE a counter\na{x=y} 1\n"},
		{"bad value", "# TYPE a counter\na NaNaN\n"},
		{"unknown type", "# TYPE a widget\na 1\n"},
		{"le not ascending", "# TYPE h histogram\nh_bucket{le=\"0.1\"} 1\nh_bucket{le=\"0.05\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n"},
		{"non-cumulative buckets", "# TYPE h histogram\nh_bucket{le=\"0.1\"} 5\nh_bucket{le=\"0.2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n"},
		{"missing +Inf", "# TYPE h histogram\nh_bucket{le=\"0.1\"} 1\nh_sum 1\nh_count 1\n"},
		{"+Inf != count", "# TYPE h histogram\nh_bucket{le=\"0.1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 2\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := Lint([]byte(tc.page)); err == nil {
				t.Fatalf("lint accepted malformed page:\n%s", tc.page)
			}
		})
	}
}

// TestLintAcceptsForeignButLegalPages checks the linter does not
// overfit to our own writer's output.
func TestLintAcceptsForeignButLegalPages(t *testing.T) {
	page := strings.Join([]string{
		"# a free-form comment",
		"# HELP up Whether the target is up.",
		"# TYPE up gauge",
		"up 1",
		"# TYPE noise untyped",
		"noise{a=\"x\",b=\"esc\\\\aped \\\"v\\\"\"} 2.5e-06",
		"",
	}, "\n")
	if err := Lint([]byte(page)); err != nil {
		t.Fatalf("lint rejected legal page: %v", err)
	}
}

// TestEscapeRoundTrip: what the writer escapes, the parser (and thus any
// Prometheus scraper) must read back verbatim.
func TestEscapeRoundTrip(t *testing.T) {
	val := "a\"b\\c\nd"
	var buf bytes.Buffer
	reg := NewRegistry()
	reg.Counter("rt_total", "h", L("k", val)).Inc()
	if err := WritePrometheus(&buf, reg); err != nil {
		t.Fatal(err)
	}
	line := ""
	for _, l := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(l, "rt_total{") {
			line = l
		}
	}
	if line == "" {
		t.Fatalf("sample line not found in:\n%s", buf.String())
	}
	_, _, _, _, _, err := parseSample(line)
	if err != nil {
		t.Fatalf("round-trip parse failed: %v", err)
	}
	labels, _, err := parseLabels(line[len("rt_total"):])
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 1 || labels[0].Value != val {
		t.Fatalf("escaped label did not round-trip: %+v", labels)
	}
}
