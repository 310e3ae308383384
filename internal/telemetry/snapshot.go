package telemetry

import (
	"encoding/json"
	"fmt"
	"time"
)

// Snapshot is the compact telemetry export one node pushes to the fleet
// controller: full counter and gauge values (the receiver computes
// deltas), per-bucket histogram data, and recently finished spans for
// cross-tier trace stitching. JSON is the wire format. Map keys are the
// fully qualified sample keys Registry.Expand uses — "name" or
// `name{label="v"}`.
type Snapshot struct {
	Node     string              `json:"node"`
	Seq      uint64              `json:"seq"`
	Time     time.Time           `json:"t"`
	Counters map[string]float64  `json:"counters,omitempty"`
	Gauges   map[string]float64  `json:"gauges,omitempty"`
	Hists    map[string]HistData `json:"hists,omitempty"`
	Spans    []Span              `json:"spans,omitempty"`
}

// HistData is the plain (non-atomic) form of a fixed-bucket histogram:
// the wire and merge representation. Counts are per bucket — not
// cumulative like the Prometheus exposition — with the implicit +Inf
// bucket last, so Counts has len(Bounds)+1 entries.
type HistData struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Sum    float64   `json:"sum"`
}

// Data returns a plain copy of the histogram for snapshot export.
func (h *Histogram) Data() HistData {
	if h == nil {
		return HistData{}
	}
	d := HistData{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		d.Counts[i] = h.counts[i].Load()
	}
	return d
}

// Count returns the total number of observations.
func (d HistData) Count() uint64 {
	var n uint64
	for _, c := range d.Counts {
		n += c
	}
	return n
}

// Valid reports whether the bucket shape is internally consistent.
func (d HistData) Valid() bool {
	return len(d.Counts) == len(d.Bounds)+1
}

// Merge adds o's buckets into d bucket-wise. Merging histograms of the
// same metric is exact (not an approximation) because buckets are fixed:
// the merged counts equal the histogram of the concatenated
// observations. The bounds must match exactly — fleet nodes share the
// package-level layouts (DurationBuckets, ComputeBuckets), so a
// mismatch means two nodes disagree about a metric's shape.
func (d *HistData) Merge(o HistData) error {
	if !o.Valid() {
		return fmt.Errorf("telemetry: merging malformed histogram (%d bounds, %d counts)", len(o.Bounds), len(o.Counts))
	}
	if len(d.Bounds) == 0 && len(d.Counts) == 0 {
		*d = HistData{Bounds: append([]float64(nil), o.Bounds...), Counts: append([]uint64(nil), o.Counts...), Sum: o.Sum}
		return nil
	}
	if !d.Valid() || len(d.Bounds) != len(o.Bounds) {
		return fmt.Errorf("telemetry: merging histograms with different bucket layouts (%d vs %d bounds)", len(d.Bounds), len(o.Bounds))
	}
	for i, b := range d.Bounds {
		if b != o.Bounds[i] {
			return fmt.Errorf("telemetry: merging histograms with different bounds at bucket %d (%v vs %v)", i, b, o.Bounds[i])
		}
	}
	for i, c := range o.Counts {
		d.Counts[i] += c
	}
	d.Sum += o.Sum
	return nil
}

// Quantile estimates the q-th quantile (0 < q <= 1) by linear
// interpolation inside the bucket holding the target rank; values in the
// +Inf bucket clamp to the last bound. Read a live Histogram's quantiles
// through h.Data().Quantile(q).
func (d HistData) Quantile(q float64) float64 {
	total := d.Count()
	if total == 0 || !d.Valid() {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	for i, n := range d.Counts {
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			lo := 0.0
			if i > 0 {
				lo = d.Bounds[i-1]
			}
			if i == len(d.Bounds) {
				return lo // +Inf bucket: clamp to the last bound
			}
			hi := d.Bounds[i]
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	if len(d.Bounds) == 0 {
		return 0
	}
	return d.Bounds[len(d.Bounds)-1]
}

// CountUnder returns the observations in buckets whose upper bound does
// not exceed the smallest bucket bound >= bound — i.e. the SLO bound
// snapped up to a bucket boundary. Fixed buckets cannot split
// mid-bucket; snapping up counts borderline observations as good. When
// bound lies above every finite bucket, only finite-bucket observations
// count (the +Inf bucket cannot prove an observation was under bound).
func (d HistData) CountUnder(bound float64) uint64 {
	if !d.Valid() {
		return 0
	}
	var cum uint64
	for i, b := range d.Bounds {
		cum += d.Counts[i]
		if b >= bound {
			break
		}
	}
	return cum
}

// BuildSnapshot captures the bundle's current state for a fleet push:
// every registered counter, gauge, and histogram, plus up to spanLimit
// of the most recently finished spans. Safe on a nil receiver.
func (t *Telemetry) BuildSnapshot(node string, seq uint64, spanLimit int) *Snapshot {
	s := &Snapshot{Node: node, Seq: seq, Time: t.Now()}
	if t == nil {
		return s
	}
	t.Metrics.appendSnapshot(s)
	if spanLimit > 0 {
		s.Spans = t.Tracer.Recent(spanLimit)
	}
	return s
}

// appendSnapshot fills s's Counters/Gauges/Hists from the registry.
// Dynamic collectors run outside the registry lock with the same panic
// isolation as exposition; their samples land in Counters or Gauges by
// family kind (histogram-suffix samples from collectors are skipped —
// no dynamic histogram families exist). The path is deliberately flat
// and allocation-light — sample keys are cached at registration, the
// destination maps are pre-sized — because snapshots are captured in
// the AP's request-serving process (the snapshot-build-us perf gate
// bounds the cost).
func (r *Registry) appendSnapshot(s *Snapshot) {
	r.mu.Lock()
	if r.snapRefs == nil {
		r.snapCtrs, r.snapGs, r.snapHs = 0, 0, 0
		var total int
		for _, name := range r.order {
			f := r.families[name]
			if f.local {
				continue
			}
			total += len(f.order)
			switch f.kind {
			case KindCounter:
				r.snapCtrs += len(f.order)
			case KindHistogram:
				r.snapHs += len(f.order)
			default:
				r.snapGs += len(f.order)
			}
		}
		r.snapRefs = make([]snapRef, 0, total)
		for _, name := range r.order {
			f := r.families[name]
			if f.local {
				continue // wall-clock-sourced diagnostics stay off the wire
			}
			for _, l := range f.order {
				r.snapRefs = append(r.snapRefs, snapRef{key: f.instruments[l].key, kind: f.kind, in: f.instruments[l]})
			}
		}
	}
	refs := r.snapRefs
	nCtr, nGauge, nHist := r.snapCtrs, r.snapGs, r.snapHs
	r.mu.Unlock()
	if s.Counters == nil && nCtr > 0 {
		s.Counters = make(map[string]float64, nCtr)
	}
	if s.Gauges == nil && nGauge > 0 {
		s.Gauges = make(map[string]float64, nGauge)
	}
	if s.Hists == nil && nHist > 0 {
		s.Hists = make(map[string]HistData, nHist)
	}
	for _, rf := range refs {
		in := rf.in
		switch {
		case in.counters != nil:
			s.Counters[rf.key] = float64(in.sum())
		case in.gauge != nil:
			s.Gauges[rf.key] = in.gauge.Value()
		case in.hist != nil:
			s.Hists[rf.key] = in.hist.Data()
		case in.fn != nil:
			name := rf.key // fn instruments are unlabeled: key is the family name
			for _, smp := range r.safeCollect(in, nil) {
				if smp.Suffix != "" {
					continue
				}
				dst := &s.Gauges
				if rf.kind == KindCounter {
					dst = &s.Counters
				}
				setSample(dst, sampleKey(name, smp.Labels), smp.Value)
			}
		}
	}
}

// snapRef is one cached entry of the registry's flat snapshot walk.
type snapRef struct {
	key  string
	kind Kind
	in   *instrument
}

func sampleKey(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

func setSample(m *map[string]float64, k string, v float64) {
	if *m == nil {
		*m = make(map[string]float64)
	}
	(*m)[k] = v
}

// EncodeSnapshot renders s as the JSON push body. encoding/json sorts
// map keys, so identical state encodes to identical bytes.
func EncodeSnapshot(s *Snapshot) ([]byte, error) {
	return json.Marshal(s)
}

// DecodeSnapshot parses a push body and restores span trace IDs from
// their hex wire form.
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	s := &Snapshot{}
	if err := json.Unmarshal(b, s); err != nil {
		return nil, err
	}
	if s.Node == "" {
		return nil, fmt.Errorf("telemetry: snapshot missing node name")
	}
	for k, h := range s.Hists {
		if !h.Valid() {
			return nil, fmt.Errorf("telemetry: snapshot histogram %s malformed", k)
		}
	}
	for i := range s.Spans {
		if id, ok := ParseTraceID(s.Spans[i].TraceHex); ok {
			s.Spans[i].Trace = id
		}
	}
	return s, nil
}
