package controlplane

import (
	"sort"
	"time"

	"apecache/internal/telemetry"
)

// SLO is one fleet service-level objective evaluated by the control plane
// with multi-window burn-rate alerting. Two forms exist:
//
//   - ratio: Good/Total name fully qualified counter sample keys
//     (`name{label="v"}`); the objective is good/total >= Objective.
//   - latency: Hist names a histogram sample key and Bound the latency
//     objective in seconds; an observation is good when it lands in a
//     bucket at or under Bound (snapped up to a bucket boundary).
//
// Both reduce to a cumulative (good, total) series per scope. The burn
// rate over a window is (error fraction)/(error budget) where the
// budget is 1-Objective: burn 1.0 consumes the budget exactly at the
// objective's rate, burn N consumes it N times faster. An alert fires
// when both the Short and Long window burns reach FireBurn (the long
// window rejects blips, the short window makes firing and resolving
// responsive) and resolves when the short-window burn falls to
// ResolveBurn or below.
type SLO struct {
	Name  string   `json:"name"`
	Good  []string `json:"good,omitempty"`
	Total []string `json:"total,omitempty"`
	Hist  string   `json:"hist,omitempty"`
	Bound float64  `json:"bound,omitempty"`
	// Objective is the target good/total fraction, e.g. 0.99.
	Objective float64 `json:"objective"`
	// Short and Long are the burn-rate windows.
	Short time.Duration `json:"short_ns"`
	Long  time.Duration `json:"long_ns"`
	// FireBurn and ResolveBurn are burn-rate thresholds.
	FireBurn    float64 `json:"fire_burn"`
	ResolveBurn float64 `json:"resolve_burn"`
	// PerAP additionally evaluates the SLO per AP (scope = AP name)
	// besides the fleet aggregate (scope = "fleet").
	PerAP bool `json:"per_ap"`
}

// FleetScope is the scope name of fleet-aggregate SLO series.
const FleetScope = "fleet"

// DefaultSLOs returns the stock fleet objectives: the paper's
// millisecond-level headline as a cached-hit latency bound, a hit-ratio
// floor, and a delegation (edge retrieval) latency bound.
func DefaultSLOs() []SLO {
	hit := `apcache_cache_serves_total{` + telemetry.LabelPair("result", "hit") + `}`
	stale := `apcache_cache_serves_total{` + telemetry.LabelPair("result", "stale") + `}`
	miss := `apcache_cache_serves_total{` + telemetry.LabelPair("result", "miss") + `}`
	return []SLO{
		{
			Name: "cached-hit-p99", Hist: "apcache_serve_seconds", Bound: 0.005,
			Objective: 0.99, Short: 30 * time.Second, Long: 90 * time.Second,
			FireBurn: 2, ResolveBurn: 1, PerAP: true,
		},
		{
			Name: "hit-ratio",
			Good: []string{hit, stale}, Total: []string{hit, stale, miss},
			Objective: 0.60, Short: 30 * time.Second, Long: 90 * time.Second,
			FireBurn: 2, ResolveBurn: 1, PerAP: true,
		},
		{
			Name: "delegation-p95", Hist: "apcache_delegation_seconds", Bound: 0.1,
			Objective: 0.95, Short: 30 * time.Second, Long: 90 * time.Second,
			FireBurn: 2, ResolveBurn: 1, PerAP: true,
		},
	}
}

// eval reduces one snapshot to the SLO's cumulative (good, total).
func (s *SLO) eval(snap *telemetry.Snapshot) (good, total float64) {
	if s.Hist != "" {
		h, ok := snap.Hists[s.Hist]
		if !ok {
			return 0, 0
		}
		return float64(h.CountUnder(s.Bound)), float64(h.Count())
	}
	for _, k := range s.Good {
		good += snap.Counters[k]
	}
	for _, k := range s.Total {
		total += snap.Counters[k]
	}
	return good, total
}

// budget returns the SLO's error budget (at least a tiny epsilon so a
// 100% objective cannot divide by zero).
func (s *SLO) budget() float64 {
	b := 1 - s.Objective
	if b < 1e-9 {
		b = 1e-9
	}
	return b
}

// AlertStatus is the externally visible state of one (SLO, scope) pair.
type AlertStatus struct {
	SLO          string    `json:"slo"`
	Scope        string    `json:"scope"`
	State        string    `json:"state"` // "ok" or "firing"
	Since        time.Time `json:"since"`
	ShortBurn    float64   `json:"short_burn"`
	LongBurn     float64   `json:"long_burn"`
	Budget       float64   `json:"budget"`
	LastFired    time.Time `json:"last_fired"`
	LastResolved time.Time `json:"last_resolved"`
}

// AlertEvent records one state transition for the alert history.
type AlertEvent struct {
	Time      time.Time `json:"t"`
	SLO       string    `json:"slo"`
	Scope     string    `json:"scope"`
	Event     string    `json:"event"` // "fire" or "resolve"
	ShortBurn float64   `json:"short_burn"`
	LongBurn  float64   `json:"long_burn"`
}

// burnPoint is one cumulative (good, total) sample of a series.
type burnPoint struct {
	t           time.Time
	good, total float64
}

// burnSeries is the cumulative history of one (SLO, scope) pair.
type burnSeries struct {
	born   time.Time
	points []burnPoint
}

func (s *burnSeries) add(t time.Time, good, total float64) {
	if n := len(s.points); n > 0 && !s.points[n-1].t.Before(t) {
		s.points[n-1] = burnPoint{t: t, good: good, total: total}
		return
	}
	s.points = append(s.points, burnPoint{t: t, good: good, total: total})
}

// prune drops points older than cutoff, always keeping one point at or
// before it so window deltas stay anchored.
func (s *burnSeries) prune(cutoff time.Time) {
	i := 0
	for i+1 < len(s.points) && s.points[i+1].t.Before(cutoff) {
		i++
	}
	if i > 0 {
		s.points = append(s.points[:0], s.points[i:]...)
	}
}

// errFrac returns the error fraction over the trailing window w: the
// delta of (total-good)/total between now-w (the latest point at or
// before it, falling back to the oldest point) and the latest point.
// No traffic in the window means no errors.
func (s *burnSeries) errFrac(now time.Time, w time.Duration) float64 {
	if len(s.points) == 0 {
		return 0
	}
	ref := s.points[0]
	cut := now.Add(-w)
	for _, p := range s.points {
		if p.t.After(cut) {
			break
		}
		ref = p
	}
	last := s.points[len(s.points)-1]
	dTotal := last.total - ref.total
	if dTotal <= 0 {
		return 0
	}
	dGood := last.good - ref.good
	frac := (dTotal - dGood) / dTotal
	if frac < 0 {
		frac = 0
	} else if frac > 1 {
		frac = 1
	}
	return frac
}

// alertState is one (SLO, scope) alert's internal state.
type alertState struct {
	slo   *SLO
	scope string

	firing       bool
	since        time.Time
	lastFired    time.Time
	lastResolved time.Time
	shortBurn    float64
	longBurn     float64
}

// maxTransitions bounds the retained alert history.
const maxTransitions = 256

// alertEngine evaluates every SLO over every scope on snapshot ingest.
// All methods are called under the fleet store's lock.
type alertEngine struct {
	slos        []SLO
	series      map[string]*burnSeries
	states      map[string]*alertState
	scopes      []string // sorted scope names seen so far
	transitions []AlertEvent
}

func newAlertEngine(slos []SLO) *alertEngine {
	return &alertEngine{
		slos:   slos,
		series: make(map[string]*burnSeries),
		states: make(map[string]*alertState),
	}
}

func alertKey(slo, scope string) string { return slo + "|" + scope }

// observe appends one cumulative sample for (slo, scope) at now.
func (e *alertEngine) observe(slo *SLO, scope string, now time.Time, good, total float64) {
	key := alertKey(slo.Name, scope)
	s, ok := e.series[key]
	if !ok {
		s = &burnSeries{born: now}
		e.series[key] = s
		if !containsString(e.scopes, scope) {
			e.scopes = append(e.scopes, scope)
			sort.Strings(e.scopes)
		}
	}
	s.add(now, good, total)
	s.prune(now.Add(-2 * slo.Long))
}

func containsString(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}

// evaluate recomputes burn rates and applies fire/resolve transitions,
// recording each in the transition history. A series is only eligible
// to fire once it has lived a full long window, so a cold fleet's
// warm-up misses cannot page.
func (e *alertEngine) evaluate(now time.Time) {
	for i := range e.slos {
		slo := &e.slos[i]
		for _, scope := range e.scopes {
			key := alertKey(slo.Name, scope)
			series, ok := e.series[key]
			if !ok {
				continue
			}
			st, ok := e.states[key]
			if !ok {
				st = &alertState{slo: slo, scope: scope, since: now}
				e.states[key] = st
			}
			budget := slo.budget()
			st.shortBurn = series.errFrac(now, slo.Short) / budget
			st.longBurn = series.errFrac(now, slo.Long) / budget
			if now.Sub(series.born) < slo.Long {
				continue
			}
			switch {
			case !st.firing && st.shortBurn >= slo.FireBurn && st.longBurn >= slo.FireBurn:
				st.firing = true
				st.since = now
				st.lastFired = now
				e.transition(now, st, "fire")
			case st.firing && st.shortBurn <= slo.ResolveBurn:
				st.firing = false
				st.since = now
				st.lastResolved = now
				e.transition(now, st, "resolve")
			}
		}
	}
}

func (e *alertEngine) transition(now time.Time, st *alertState, event string) {
	e.transitions = append(e.transitions, AlertEvent{
		Time: now, SLO: st.slo.Name, Scope: st.scope, Event: event,
		ShortBurn: st.shortBurn, LongBurn: st.longBurn,
	})
	if len(e.transitions) > maxTransitions {
		e.transitions = e.transitions[len(e.transitions)-maxTransitions:]
	}
}

// statuses returns every alert's current state, SLO declaration order
// then scope name order.
func (e *alertEngine) statuses() []AlertStatus {
	var out []AlertStatus
	for i := range e.slos {
		slo := &e.slos[i]
		for _, scope := range e.scopes {
			st, ok := e.states[alertKey(slo.Name, scope)]
			if !ok {
				continue
			}
			state := "ok"
			if st.firing {
				state = "firing"
			}
			out = append(out, AlertStatus{
				SLO: slo.Name, Scope: scope, State: state, Since: st.since,
				ShortBurn: st.shortBurn, LongBurn: st.longBurn, Budget: slo.budget(),
				LastFired: st.lastFired, LastResolved: st.lastResolved,
			})
		}
	}
	return out
}

// history returns the retained transitions, oldest first.
func (e *alertEngine) history() []AlertEvent {
	return append([]AlertEvent(nil), e.transitions...)
}
