package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind is a Prometheus metric family type.
type Kind int

// Metric family kinds, in exposition-format spelling.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
	KindUntyped
)

// String returns the TYPE line spelling.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Sample is one exposition line of a family: name+Suffix{Labels} Value.
type Sample struct {
	Suffix string // "", "_bucket", "_sum", "_count"
	Labels string // rendered label pairs without braces, e.g. `cause="capacity"`
	Value  float64
}

// CollectFunc produces the current samples of a dynamic family (for
// example one gauge per app with an app="…" label). It must append to
// dst and return the result, and must be safe for concurrent calls.
type CollectFunc func(dst []Sample) []Sample

// instrument is one registered member of a family.
type instrument struct {
	labels string
	key    string // fully qualified sample key, cached for snapshot pushes
	// counters are summed into the sample: the one LabeledCounter
	// created (own) and any a component attached (Attach), so components
	// sharing a family in one registry report their total.
	counters []*Counter
	own      *Counter
	gauge    *Gauge
	hist     *Histogram
	fn       CollectFunc
}

// sum totals the instrument's counters.
func (in *instrument) sum() int64 {
	var n int64
	for _, c := range in.counters {
		n += c.Value()
	}
	return n
}

func (in *instrument) collect(dst []Sample) []Sample {
	switch {
	case in.counters != nil:
		return append(dst, Sample{Labels: in.labels, Value: float64(in.sum())})
	case in.gauge != nil:
		return in.gauge.collect(dst, in.labels)
	case in.hist != nil:
		return in.hist.collect(dst, in.labels)
	case in.fn != nil:
		return in.fn(dst)
	}
	return dst
}

// family is a named metric with one or more labeled instruments.
type family struct {
	name        string
	help        string
	kind        Kind
	instruments map[string]*instrument // keyed by label string
	order       []string
	local       bool // excluded from fleet snapshots (see SetLocal)
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration is idempotent: asking for an existing
// name+labels pair of the same kind returns the existing instrument, so
// components can re-register without coordination. A kind or shape
// mismatch panics — that is a programming error, caught by tests.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string

	collectErrs *Counter

	// snapRefs caches the flat instrument list appendSnapshot walks,
	// with per-kind counts for map pre-sizing. Registration and SetLocal
	// invalidate it; it is rebuilt lazily on the next snapshot capture.
	snapRefs                 []snapRef
	snapCtrs, snapGs, snapHs int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{families: make(map[string]*family)}
	r.collectErrs = r.Counter("telemetry_collect_errors_total",
		"collector callbacks that panicked during exposition (recovered)")
	return r
}

func (r *Registry) familyLocked(name, help string, kind Kind) *family {
	r.snapRefs = nil // any (re-)registration may add an instrument
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, instruments: make(map[string]*instrument)}
		r.families[name] = f
		r.order = append(r.order, name)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: %s re-registered as %s, was %s", name, kind, f.kind))
	}
	return f
}

// SetLocal marks a family as node-local: it still renders on /metrics
// but is excluded from fleet snapshot pushes. Use it for instruments
// whose values come from the wall clock (real CPU timings) — shipping
// those over simnet would make wire sizes, and therefore virtual
// timestamps, vary between otherwise identical runs.
func (r *Registry) SetLocal(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		f.local = true
		r.snapRefs = nil
	}
}

func (f *family) add(labels string, in *instrument) *instrument {
	if prev, ok := f.instruments[labels]; ok {
		return prev
	}
	in.labels = labels
	in.key = sampleKey(f.name, labels)
	f.instruments[labels] = in
	f.order = append(f.order, labels)
	return in
}

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.LabeledCounter(name, "", help)
}

// LabeledCounter registers (or returns) a counter with a fixed label
// set, e.g. `cause="capacity"`.
func (r *Registry) LabeledCounter(name, labels, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	in := r.counterLocked(name, labels, help)
	if in.own == nil {
		in.own = &Counter{}
		in.counters = append(in.counters, in.own)
	}
	return in.own
}

// Attach registers c, a counter its component owns and keeps counting
// whether or not it is attached, as the name{labels} sample. A sample
// that several components attach to reports their sum; attaching the
// same counter twice counts it once.
func (r *Registry) Attach(name, labels, help string, c *Counter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	in := r.counterLocked(name, labels, help)
	for _, have := range in.counters {
		if have == c {
			return
		}
	}
	in.counters = append(in.counters, c)
}

func (r *Registry) counterLocked(name, labels, help string) *instrument {
	in := r.familyLocked(name, help, KindCounter).add(labels, &instrument{})
	if in.fn != nil {
		panic("telemetry: " + name + " is not a counter")
	}
	return in
}

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.LabeledGauge(name, "", help)
}

// LabeledGauge registers (or returns) a gauge with a fixed label set.
func (r *Registry) LabeledGauge(name, labels, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, KindGauge)
	in := f.add(labels, &instrument{gauge: &Gauge{}})
	if in.gauge == nil {
		panic("telemetry: " + name + " is not a gauge")
	}
	return in.gauge
}

// GaugeFunc registers a gauge whose value is read from fn at exposition
// time. fn must be safe for concurrent calls.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, KindGauge)
	f.add("", &instrument{fn: func(dst []Sample) []Sample {
		return append(dst, Sample{Value: fn()})
	}})
}

// Histogram registers (or returns) a fixed-bucket histogram with the
// given ascending upper bounds (seconds for latency metrics).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, KindHistogram)
	in := f.add("", &instrument{hist: newHistogram(bounds)})
	if in.hist == nil {
		panic("telemetry: " + name + " is not a histogram")
	}
	return in.hist
}

// Collect registers a dynamic family whose full sample set is produced
// by fn at exposition time (e.g. one gauge per app). Samples should be
// returned in a deterministic order.
func (r *Registry) Collect(name, help string, kind Kind, fn CollectFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, kind)
	f.add("", &instrument{fn: fn})
}

// familySnapshot is one family with its current samples.
type familySnapshot struct {
	name    string
	help    string
	kind    Kind
	samples []Sample
}

// snapshot collects every family in sorted name order.
func (r *Registry) snapshot() []familySnapshot {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	out := make([]familySnapshot, 0, len(fams))
	for _, f := range fams {
		snap := familySnapshot{name: f.name, help: f.help, kind: f.kind}
		labels := append([]string(nil), f.order...)
		sort.Strings(labels)
		for _, l := range labels {
			snap.samples = r.safeCollect(f.instruments[l], snap.samples)
		}
		out = append(out, snap)
	}
	return out
}

// safeCollect runs one instrument's collector with panic isolation: a
// broken GaugeFunc or CollectFunc must not take down /metrics for every
// other family. A recovered panic drops that instrument's samples for
// this scrape and bumps telemetry_collect_errors_total.
func (r *Registry) safeCollect(in *instrument, dst []Sample) (out []Sample) {
	defer func() {
		if rec := recover(); rec != nil {
			r.collectErrs.Inc()
			out = dst
		}
	}()
	return in.collect(dst)
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4), families sorted by name, instruments by label.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.snapshot() {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.samples {
			line := f.name + s.Suffix
			if s.Labels != "" {
				line += "{" + s.Labels + "}"
			}
			if _, err := fmt.Fprintf(w, "%s %s\n", line, formatValue(s.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Expand returns every current sample as a fully qualified
// "name_suffix{labels}" → value map, for the expvar endpoint and for
// tabular rendering in apectl.
func (r *Registry) Expand() map[string]float64 {
	out := make(map[string]float64)
	for _, f := range r.snapshot() {
		for _, s := range f.samples {
			key := f.name + s.Suffix
			if s.Labels != "" {
				key += "{" + s.Labels + "}"
			}
			out[key] = s.Value
		}
	}
	return out
}

// formatValue renders a float the way Prometheus clients do: shortest
// round-trip representation, integers without a decimal point.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// EscapeLabelValue quotes a label value for use inside a label pair.
func EscapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// LabelPair renders one key="value" label pair with escaping.
func LabelPair(key, value string) string {
	return key + `="` + EscapeLabelValue(value) + `"`
}
