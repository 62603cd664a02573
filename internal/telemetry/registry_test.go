package telemetry

import (
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("t_total", "help")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	g := reg.Gauge("t_gauge", "help")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestRegistrationIsIdempotent(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("same_total", "help", L("k", "v"))
	b := reg.Counter("same_total", "help", L("k", "v"))
	a.Inc()
	b.Inc()
	if a.Value() != 2 || b.Value() != 2 {
		t.Fatalf("handles do not share state: %d vs %d", a.Value(), b.Value())
	}
	other := reg.Counter("same_total", "help", L("k", "other"))
	if other.Value() != 0 {
		t.Fatalf("distinct label value shares state")
	}
}

func TestKindConflictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	reg := NewRegistry()
	reg.Counter("conflict", "help")
	reg.Gauge("conflict", "help")
}

func TestHistogramBucketPlacement(t *testing.T) {
	reg := NewRegistry()
	bounds := []time.Duration{time.Microsecond, time.Millisecond, time.Second}
	h := reg.Histogram("t_seconds", "help", bounds)
	h.Observe(500 * time.Nanosecond) // bucket 0
	h.Observe(time.Microsecond)      // bucket 0 (le is inclusive)
	h.Observe(2 * time.Microsecond)  // bucket 1
	h.Observe(time.Hour)             // +Inf
	if got := h.Count(); got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
	wantSum := 500*time.Nanosecond + time.Microsecond + 2*time.Microsecond + time.Hour
	if got := h.Sum(); got != wantSum {
		t.Fatalf("sum = %v, want %v", got, wantSum)
	}
	want := []int64{2, 1, 0, 1}
	for i, w := range want {
		if got := h.s.counts[i].Load(); got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
}

func TestHistogramNonAscendingBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("descending bounds did not panic")
		}
	}()
	NewRegistry().Histogram("bad_seconds", "help", []time.Duration{time.Second, time.Millisecond})
}

func TestFuncSeriesReadAtScrape(t *testing.T) {
	reg := NewRegistry()
	v := int64(0)
	reg.GaugeFunc("t_fn", "help", func() int64 { return v })
	v = 99
	snap := reg.Snapshot()
	if len(snap) != 1 || snap[0].Value != 99 {
		t.Fatalf("func gauge snapshot = %+v, want value 99", snap)
	}
}

// TestConcurrentUpdates hammers one instrument set from many goroutines;
// under -race this is the registry's data-race smoke, and the final
// totals check that no update was lost.
func TestConcurrentUpdates(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("cc_total", "help")
	h := reg.Histogram("ch_seconds", "help", nil)
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(time.Duration(w*i) * time.Nanosecond)
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter lost updates: %d != %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram lost updates: %d != %d", h.Count(), workers*per)
	}
}

// Value returns the raw (unscaled) count.
func (c Counter) Value() int64 { return c.s.val.Load() }

// Add adjusts the gauge by d.
func (g Gauge) Add(d int64) { g.s.val.Add(d) }

// Value returns the raw gauge value.
func (g Gauge) Value() int64 { return g.s.val.Load() }

// Sum returns the total of all observations.
func (h Histogram) Sum() time.Duration { return time.Duration(h.s.sum.Load()) }
