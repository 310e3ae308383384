package controlplane

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"apecache/internal/telemetry"
	"apecache/internal/vclock"
)

// FleetConfig tunes the control plane's fleet observability store, which
// evaluates DefaultSLOs on every ingest.
type FleetConfig struct {
	// SnapshotInterval is the cadence APs are expected to push at; it
	// drives the snapshot-staleness health signal. Defaults to
	// telemetry.DefaultSnapshotInterval.
	SnapshotInterval time.Duration
}

// healthWindow is the trailing window health rates are computed over.
const healthWindow = time.Minute

// exemplarCount bounds the slowest-span exemplars kept per latency
// metric.
const exemplarCount = 5

// Exemplar links a latency distribution to one concrete slow request:
// a trace ID the operator can feed straight into `apectl trace`.
type Exemplar struct {
	Trace   string  `json:"trace"`
	Node    string  `json:"node"`
	Span    string  `json:"span"`
	Seconds float64 `json:"seconds"`
}

// FleetLatency is one metric's fleet-merged latency distribution.
type FleetLatency struct {
	Metric    string     `json:"metric"`
	Count     uint64     `json:"count"`
	MeanMs    float64    `json:"mean_ms"`
	P50Ms     float64    `json:"p50_ms"`
	P99Ms     float64    `json:"p99_ms"`
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// FleetMissCause is one bucket of the fleet-wide miss-cause breakdown,
// summed across every AP running with the decision ledger on.
type FleetMissCause struct {
	Cause  string  `json:"cause"`
	Misses float64 `json:"misses"`
}

// FleetView is the /fleet response: per-AP health, merged latency
// distributions with exemplars, and every alert's state. MissCauses is
// present only when at least one AP pushes apcache_miss_cause_total
// counters (decision ledger on), so ledger-off fleets render identical
// bytes.
type FleetView struct {
	Now        time.Time        `json:"now"`
	APs        []HealthReport   `json:"aps"`
	Latency    []FleetLatency   `json:"latency"`
	Alerts     []AlertStatus    `json:"alerts"`
	MissCauses []FleetMissCause `json:"miss_causes,omitempty"`
}

// apState is one AP's retained telemetry at the control plane.
type apState struct {
	name     string
	seq      uint64
	snapTime time.Time // AP-stamped snapshot time
	recvTime time.Time // control-plane clock at ingest
	cur      *telemetry.Snapshot
	first    healthPoint // long-run baseline, never pruned
	points   []healthPoint
}

// spanKey identifies a span for cross-snapshot deduplication (APs
// resend recent ring contents every push).
type spanKey struct {
	trace telemetry.TraceID
	name  string
	node  string
	start int64
}

// maxSeenSpans bounds the dedup set.
const maxSeenSpans = 8192

// exemplarSpanMetric maps span names to the histogram family their
// durations feed, attaching trace exemplars to merged distributions.
var exemplarSpanMetric = map[string]string{
	"ap-cache":   "apcache_serve_seconds",
	"delegation": "apcache_delegation_seconds",
}

// FleetStore aggregates pushed telemetry snapshots at the control plane:
// per-AP health scores, fleet-merged latency histograms with trace
// exemplars, stitched cross-tier traces, and SLO burn-rate alerts. It
// has its own lock — under realnet, snapshot pushes and /fleet reads
// arrive on different goroutines.
type FleetStore struct {
	env vclock.Env
	tel *telemetry.Telemetry

	mu        sync.Mutex
	cfg       FleetConfig
	aps       map[string]*apState
	order     []string // first-seen order
	engine    *alertEngine
	exemplars map[string][]Exemplar
	seen      map[spanKey]struct{}
	seenOrder []spanKey

	ingestsC *telemetry.Counter
	rejectsC *telemetry.Counter
}

// NewFleetStore builds a fleet store; tel may be nil (no stitched
// traces, aggregation still works).
func NewFleetStore(env vclock.Env, tel *telemetry.Telemetry, cfg FleetConfig) *FleetStore {
	if cfg.SnapshotInterval <= 0 {
		cfg.SnapshotInterval = telemetry.DefaultSnapshotInterval
	}
	f := &FleetStore{
		env:       env,
		tel:       tel,
		cfg:       cfg,
		aps:       make(map[string]*apState),
		engine:    newAlertEngine(DefaultSLOs()),
		exemplars: make(map[string][]Exemplar),
		seen:      make(map[spanKey]struct{}),
	}
	if tel != nil {
		f.ingestsC = tel.Metrics.Counter("wicache_fleet_snapshots_total", "telemetry snapshots ingested")
		f.rejectsC = tel.Metrics.Counter("wicache_fleet_snapshot_rejects_total", "telemetry snapshots rejected (stale seq or malformed)")
	}
	return f
}

// Ingest applies one pushed snapshot: updates the AP's state and health
// history, stitches its spans into the control plane's tracer, refreshes
// exemplars, and re-evaluates every SLO. Out-of-order snapshots
// (sequence at or below the last seen) are rejected so a delayed
// duplicate cannot roll counters backwards.
func (f *FleetStore) Ingest(snap *telemetry.Snapshot) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := f.env.Now()

	st, ok := f.aps[snap.Node]
	if !ok {
		st = &apState{name: snap.Node}
		f.aps[snap.Node] = st
		f.order = append(f.order, snap.Node)
	} else if snap.Seq <= st.seq {
		f.rejectsC.Inc()
		return fmt.Errorf("controlplane: stale snapshot for %s: seq %d <= %d", snap.Node, snap.Seq, st.seq)
	}
	f.ingestsC.Inc()
	st.seq = snap.Seq
	st.snapTime = snap.Time
	st.recvTime = now
	st.cur = snap

	hp := healthPointOf(now, snap)
	if len(st.points) == 0 {
		st.first = hp
	}
	st.points = append(st.points, hp)
	// Keep the window reference anchored: drop points only when the
	// next one is already older than the window cutoff.
	cut := now.Add(-2 * healthWindow)
	i := 0
	for i+1 < len(st.points) && st.points[i+1].t.Before(cut) {
		i++
	}
	if i > 0 {
		st.points = append(st.points[:0], st.points[i:]...)
	}

	f.stitchSpans(snap)
	f.evaluateSLOs(now)
	return nil
}

// stitchSpans records newly seen spans into the control plane's tracer —
// joining client, AP, edge, and origin spans of one trace ID under a
// single ring — and harvests slow-span exemplars per latency metric.
func (f *FleetStore) stitchSpans(snap *telemetry.Snapshot) {
	for _, sp := range snap.Spans {
		if sp.Trace == 0 {
			continue
		}
		key := spanKey{trace: sp.Trace, name: sp.Name, node: sp.Node, start: sp.Start.UnixNano()}
		if _, dup := f.seen[key]; dup {
			continue
		}
		f.seen[key] = struct{}{}
		f.seenOrder = append(f.seenOrder, key)
		if len(f.seenOrder) > maxSeenSpans {
			delete(f.seen, f.seenOrder[0])
			f.seenOrder = f.seenOrder[1:]
		}
		if f.tel != nil {
			f.tel.Tracer.Record(sp)
		}
		metric, ok := exemplarSpanMetric[sp.Name]
		if !ok {
			continue
		}
		ex := append(f.exemplars[metric], Exemplar{
			Trace: sp.Trace.String(), Node: sp.Node, Span: sp.Name, Seconds: sp.Duration.Seconds(),
		})
		sort.SliceStable(ex, func(i, j int) bool { return ex[i].Seconds > ex[j].Seconds })
		if len(ex) > exemplarCount {
			ex = ex[:exemplarCount]
		}
		f.exemplars[metric] = ex
	}
}

// evaluateSLOs reduces every AP's current snapshot to each SLO's
// cumulative (good, total), feeds the per-AP and fleet-aggregate burn
// series, and runs the alert state machine.
func (f *FleetStore) evaluateSLOs(now time.Time) {
	for i := range f.engine.slos {
		slo := &f.engine.slos[i]
		var fleetGood, fleetTotal float64
		for _, name := range f.order {
			st := f.aps[name]
			good, total := slo.eval(st.cur)
			fleetGood += good
			fleetTotal += total
			if slo.PerAP {
				f.engine.observe(slo, st.name, now, good, total)
			}
		}
		f.engine.observe(slo, FleetScope, now, fleetGood, fleetTotal)
	}
	f.engine.evaluate(now)
}

// View renders the current fleet state: APs in first-seen order, merged
// latency metrics in name order, alerts in SLO-then-scope order — all
// deterministic under simnet.
func (f *FleetStore) View() *FleetView {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := f.env.Now()
	v := &FleetView{Now: now}
	for _, name := range f.order {
		st := f.aps[name]
		if len(st.points) == 0 {
			continue
		}
		v.APs = append(v.APs, f.healthLocked(st, now))
	}

	merged := make(map[string]*telemetry.HistData)
	var names []string
	for _, name := range f.order {
		for key, h := range f.aps[name].cur.Hists {
			m, ok := merged[key]
			if !ok {
				m = &telemetry.HistData{}
				merged[key] = m
				names = append(names, key)
			}
			_ = m.Merge(h) // layout mismatches drop the contribution
		}
	}
	sort.Strings(names)
	for _, key := range names {
		m := merged[key]
		n := m.Count()
		if n == 0 {
			continue
		}
		family := key
		if i := strings.IndexByte(family, '{'); i >= 0 {
			family = family[:i]
		}
		v.Latency = append(v.Latency, FleetLatency{
			Metric:    key,
			Count:     n,
			MeanMs:    m.Sum / float64(n) * 1e3,
			P50Ms:     m.Quantile(0.50) * 1e3,
			P99Ms:     m.Quantile(0.99) * 1e3,
			Exemplars: append([]Exemplar(nil), f.exemplars[family]...),
		})
	}
	// Fleet-wide miss-cause breakdown: sum each AP's attribution
	// counters (present only on ledger-on APs) per cause, rendered in
	// cause order for determinism.
	const causePrefix = `apcache_miss_cause_total{cause="`
	causeSums := make(map[string]float64)
	var causes []string
	for _, name := range f.order {
		for key, val := range f.aps[name].cur.Counters {
			if !strings.HasPrefix(key, causePrefix) {
				continue
			}
			cause := key[len(causePrefix):]
			if i := strings.IndexByte(cause, '"'); i >= 0 {
				cause = cause[:i]
			}
			if _, ok := causeSums[cause]; !ok {
				causes = append(causes, cause)
			}
			causeSums[cause] += val
		}
	}
	sort.Strings(causes)
	for _, c := range causes {
		v.MissCauses = append(v.MissCauses, FleetMissCause{Cause: c, Misses: causeSums[c]})
	}
	v.Alerts = f.engine.statuses()
	return v
}

// Alerts returns every alert's current status.
func (f *FleetStore) Alerts() []AlertStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.engine.statuses()
}

// AlertHistory returns retained fire/resolve transitions, oldest first.
func (f *FleetStore) AlertHistory() []AlertEvent {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.engine.history()
}
