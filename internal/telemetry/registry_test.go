package telemetry

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrent hammers every instrument type from many
// goroutines while a reader renders the exposition; run with -race this
// is the registry's thread-safety proof.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "ops")
	hit := r.LabeledCounter("result_total", LabelPair("result", "hit"), "results")
	miss := r.LabeledCounter("result_total", LabelPair("result", "miss"), "results")
	g := r.Gauge("depth", "queue depth")
	h := r.Histogram("latency_seconds", "latency", DurationBuckets)

	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				if i%2 == 0 {
					hit.Inc()
				} else {
					miss.Inc()
				}
				g.Set(float64(i))
				g.Add(0.5)
				h.Observe(float64(i%100) * 1e-4)
				// Re-registration must be idempotent under concurrency.
				if r.Counter("ops_total", "ops") != c {
					t.Error("re-registration returned a different counter")
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var buf bytes.Buffer
			if err := r.WritePrometheus(&buf); err != nil {
				t.Errorf("WritePrometheus: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done

	if got := c.Value(); got != workers*iters {
		t.Errorf("counter = %d, want %d", got, workers*iters)
	}
	if got := hit.Value() + miss.Value(); got != workers*iters {
		t.Errorf("labeled counters = %d, want %d", got, workers*iters)
	}
	if got := h.Count(); got != workers*iters {
		t.Errorf("histogram count = %d, want %d", got, workers*iters)
	}
}

// TestPrometheusExpositionGolden pins the exact text exposition: family
// ordering, HELP/TYPE lines, label rendering, histogram buckets.
func TestPrometheusExpositionGolden(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("req_seconds", "request latency", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(5)
	ev := r.LabeledCounter("evictions_total", LabelPair("cause", "capacity"), "evictions by cause")
	ev.Add(3)
	r.LabeledCounter("evictions_total", LabelPair("cause", "expired"), "evictions by cause").Inc()
	r.Gauge("occupancy_ratio", "cache occupancy").Set(0.25)
	r.GaugeFunc("entries", "resident entries", func() float64 { return 42 })
	r.Collect("app_rate", "per-app request rate", KindGauge, func(dst []Sample) []Sample {
		dst = append(dst, Sample{Labels: LabelPair("app", "maps"), Value: 1.5})
		return append(dst, Sample{Labels: LabelPair("app", "video"), Value: 7})
	})

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP app_rate per-app request rate
# TYPE app_rate gauge
app_rate{app="maps"} 1.5
app_rate{app="video"} 7
# HELP entries resident entries
# TYPE entries gauge
entries 42
# HELP evictions_total evictions by cause
# TYPE evictions_total counter
evictions_total{cause="capacity"} 3
evictions_total{cause="expired"} 1
# HELP occupancy_ratio cache occupancy
# TYPE occupancy_ratio gauge
occupancy_ratio 0.25
# HELP req_seconds request latency
# TYPE req_seconds histogram
req_seconds_bucket{le="0.001"} 1
req_seconds_bucket{le="0.01"} 2
req_seconds_bucket{le="+Inf"} 3
req_seconds_sum 5.0055
req_seconds_count 3
# HELP telemetry_collect_errors_total collector callbacks that panicked during exposition (recovered)
# TYPE telemetry_collect_errors_total counter
telemetry_collect_errors_total 0
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram(ExpBuckets(1, 2, 10)) // 1,2,4,...,512
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) * 0.1) // 0.1 .. 100
	}
	if got := h.Count(); got != 1000 {
		t.Fatalf("count = %d", got)
	}
	med := h.Data().Quantile(0.5)
	// True median 50 lives in the (32,64] bucket; interpolation should
	// land within that bucket and near the true value.
	if med <= 32 || med > 64 {
		t.Errorf("median estimate %v outside its bucket (32,64]", med)
	}
	if math.Abs(med-50) > 15 {
		t.Errorf("median estimate %v too far from 50", med)
	}
	if q := h.Data().Quantile(0.99); q < 64 {
		t.Errorf("p99 estimate %v implausibly low", q)
	}
	var empty *Histogram
	if empty.Data().Quantile(0.5) != 0 || empty.Count() != 0 {
		t.Error("nil histogram not zero-valued")
	}
}

func TestNilInstrumentsAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Sum() != 0 {
		t.Error("nil instruments returned nonzero values")
	}
}

func TestEscapeLabelValue(t *testing.T) {
	got := LabelPair("url", "a\"b\\c\nd")
	want := `url="a\"b\\c\nd"`
	if got != want {
		t.Errorf("LabelPair = %s, want %s", got, want)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestExpand(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(2)
	r.Histogram("h_seconds", "", []float64{1}).Observe(0.5)
	m := r.Expand()
	if m["a_total"] != 2 {
		t.Errorf("a_total = %v", m["a_total"])
	}
	if m[`h_seconds_bucket{le="1"}`] != 1 || m["h_seconds_count"] != 1 {
		t.Errorf("histogram expansion missing: %v", m)
	}
	if !strings.Contains(formatValue(0.25), "0.25") {
		t.Error("formatValue(0.25)")
	}
}
