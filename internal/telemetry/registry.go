// Package telemetry is the live-metrics substrate of the runtime: an
// allocation-conscious registry of atomic counters, gauges and
// fixed-bucket latency histograms, Prometheus text-format exposition,
// per-rank HTTP endpoints (metrics + pprof), and a cross-rank merge
// built in process from the per-rank registries once the run returns.
//
// Unlike internal/prof — which records every primitive event for
// post-mortem analysis — telemetry maintains O(1) state per series and
// is cheap enough to leave on in production runs: the hot path is a
// handful of uncontended atomic adds with no locks and no allocations,
// safe under the race detector.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies a series for exposition and merging.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Label is one key=value pair attached to a series at registration time.
// Telemetry has no dynamic label cardinality: every series is fully
// identified up front, which is what keeps the update path lock-free.
type Label struct {
	Key   string
	Value string
}

// L builds a Label; the short name keeps registration sites readable.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// series is the registry's internal record of one metric stream. The
// raw value of counters and gauges is an int64; the exposed float is
// raw/scale (scale 1e9 for nanosecond-backed seconds — division keeps
// round bounds like 1µs rendering as exactly 1e-06).
type series struct {
	name   string
	help   string
	labels []Label
	kind   Kind
	scale  float64

	val atomic.Int64
	fn  func() int64 // read-on-scrape value; nil for stored series

	// histogram state: bounds are inclusive upper edges in nanoseconds;
	// counts has len(bounds)+1 entries, the last being the +Inf bucket.
	// Counts are stored non-cumulative and cumulated at exposition; the
	// observation count is their sum, so it cannot disagree with them.
	bounds []int64
	counts []atomic.Int64
	sum    atomic.Int64 // nanoseconds
}

// key uniquely identifies a series inside a registry.
func (s *series) key() string {
	if len(s.labels) == 0 {
		return s.name
	}
	var b strings.Builder
	b.WriteString(s.name)
	for _, l := range s.labels {
		b.WriteByte(0xff)
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// value returns the scaled current value of a counter or gauge.
func (s *series) value() float64 {
	raw := s.val.Load()
	if s.fn != nil {
		raw = s.fn()
	}
	return float64(raw) / s.scale
}

// Registry holds the series of one exposition unit (one rank, or the
// process). Registration takes a mutex; updates never do.
type Registry struct {
	mu    sync.Mutex
	by    map[string]*series
	order []*series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{by: make(map[string]*series)}
}

// register adds s or panics on a conflicting re-registration —
// duplicate series are programmer errors, caught by any test that
// constructs the instrument set.
func (r *Registry) register(s *series) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := s.key()
	if prev, ok := r.by[k]; ok {
		if prev.kind != s.kind {
			panic(fmt.Sprintf("telemetry: series %q re-registered as %v (was %v)", s.name, s.kind, prev.kind))
		}
		return prev
	}
	r.by[k] = s
	r.order = append(r.order, s)
	return s
}

// sorted returns the series ordered by (name, label signature) — the
// deterministic order every exporter and snapshot uses.
func (r *Registry) sorted() []*series {
	r.mu.Lock()
	out := append([]*series(nil), r.order...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].key() < out[j].key()
	})
	return out
}

// Counter is a monotonically increasing series. The zero Counter is
// unusable; obtain one from Registry.Counter.
type Counter struct{ s *series }

// Counter registers (or finds) a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) Counter {
	return Counter{r.register(&series{name: name, help: help, labels: labels, kind: KindCounter, scale: 1})}
}

// DurationCounter registers a counter that accumulates nanoseconds and
// exposes seconds (Prometheus' base unit).
func (r *Registry) DurationCounter(name, help string, labels ...Label) Counter {
	return Counter{r.register(&series{name: name, help: help, labels: labels, kind: KindCounter, scale: 1e9})}
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge for counters maintained elsewhere (e.g. the mpi
// buffer pool's package atomics).
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	r.register(&series{name: name, help: help, labels: labels, kind: KindCounter, scale: 1, fn: fn})
}

// Inc adds one.
func (c Counter) Inc() { c.s.val.Add(1) }

// Add adds n (n must be non-negative for the exposition to stay a valid
// counter; this is not checked on the hot path).
func (c Counter) Add(n int64) { c.s.val.Add(n) }

// Gauge is a series that can go up and down.
type Gauge struct{ s *series }

// Gauge registers (or finds) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) Gauge {
	return Gauge{r.register(&series{name: name, help: help, labels: labels, kind: KindGauge, scale: 1})}
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...Label) {
	r.register(&series{name: name, help: help, labels: labels, kind: KindGauge, scale: 1, fn: fn})
}

// Set stores v.
func (g Gauge) Set(v int64) { g.s.val.Store(v) }

// DefBuckets are the default latency bucket upper bounds: a 1-2.5-5
// decade ladder from 1µs to 1s, wide enough for an in-process channel
// hop and a contended TCP collective alike.
var DefBuckets = []time.Duration{
	time.Microsecond, 2500 * time.Nanosecond, 5 * time.Microsecond,
	10 * time.Microsecond, 25 * time.Microsecond, 50 * time.Microsecond,
	100 * time.Microsecond, 250 * time.Microsecond, 500 * time.Microsecond,
	time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond,
	10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
	time.Second,
}

// Histogram is a fixed-bucket latency distribution. Observations are
// two uncontended atomic adds plus a short linear scan over the
// bounds — no locks, no allocation.
type Histogram struct{ s *series }

// Histogram registers (or finds) a histogram with the given bucket upper
// bounds (ascending). Nil bounds select DefBuckets. Exposed values are
// seconds.
func (r *Registry) Histogram(name, help string, buckets []time.Duration, labels ...Label) Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	bounds := make([]int64, len(buckets))
	for i, b := range buckets {
		bounds[i] = int64(b)
		if i > 0 && bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q bounds not ascending", name))
		}
	}
	s := &series{name: name, help: help, labels: labels, kind: KindHistogram, scale: 1e9,
		bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	return Histogram{r.register(s)}
}

// Observe records one duration.
func (h Histogram) Observe(d time.Duration) {
	s := h.s
	n := int64(d)
	i := 0
	for ; i < len(s.bounds); i++ {
		if n <= s.bounds[i] {
			break
		}
	}
	s.counts[i].Add(1)
	s.sum.Add(n)
}

// Count returns the number of observations recorded: the sum of the
// buckets.
func (h Histogram) Count() int64 {
	var n int64
	for i := range h.s.counts {
		n += h.s.counts[i].Load()
	}
	return n
}
