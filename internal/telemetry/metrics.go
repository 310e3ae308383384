// Package telemetry is the runtime observability layer shared by every
// daemon in the fleet: a low-overhead metrics registry (atomic counters,
// gauges, fixed-bucket histograms), a request tracer whose IDs ride the
// DNS-Cache RR and the HTTP fetch path, and httplite handlers exposing
// both (Prometheus text, expvar JSON, the span store) beside pprof.
//
// Hot-path cost is a design constraint: instruments are single atomic
// operations, histograms are fixed-bucket (no sample slices), and every
// instrument type is nil-safe so uninstrumented components pay only a
// predicted branch.
package telemetry

import (
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. All methods are safe on
// a nil receiver (no-ops), so uninstrumented code can call them freely.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be >= 0 for the Prometheus counter contract).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float metric stored as atomic float64 bits. Safe
// on a nil receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta with a CAS loop.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) collect(dst []Sample, labels string) []Sample {
	return append(dst, Sample{Labels: labels, Value: g.Value()})
}

// Histogram is a fixed-bucket histogram in the Prometheus style:
// cumulative bucket counts, a running sum, and no per-sample storage.
// Observe is two atomic adds plus a short linear scan over the bounds.
// Safe on a nil receiver.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; the +Inf bucket is implicit
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the running sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Mean returns Sum/Count, or zero with no observations.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

func (h *Histogram) collect(dst []Sample, labels string) []Sample {
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatValue(h.bounds[i])
		}
		dst = append(dst, Sample{Suffix: "_bucket", Labels: joinLabels(labels, `le="`+le+`"`), Value: float64(cum)})
	}
	dst = append(dst, Sample{Suffix: "_sum", Labels: labels, Value: h.Sum()})
	dst = append(dst, Sample{Suffix: "_count", Labels: labels, Value: float64(h.count.Load())})
	return dst
}

// ExpBuckets returns n exponentially spaced bounds starting at start and
// growing by factor, for use as histogram bounds.
func ExpBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// DurationBuckets are the default request-latency bounds in seconds
// (100µs … ~13s): wide enough for origin round trips, fine enough to
// separate AP hits (sub-millisecond) from edge fetches.
var DurationBuckets = ExpBuckets(100e-6, 2, 18)

// ComputeBuckets are the default bounds for on-CPU work such as a PACM
// victim-selection pass (1µs … ~1s).
var ComputeBuckets = ExpBuckets(1e-6, 4, 11)

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	if b == "" {
		return a
	}
	return a + "," + b
}
