package controlplane

import (
	"time"

	"apecache/internal/telemetry"
)

// HealthReport is one AP's fleet-health summary: a 0–100 score built
// from weighted penalties (documented in DESIGN.md §11), the signals
// behind it, and the snapshot freshness.
type HealthReport struct {
	AP     string  `json:"ap"`
	Score  float64 `json:"score"`
	Status string  `json:"status"` // healthy | degraded | critical | stale
	// HitRatio is over the recent health window; HitRatioLong since the
	// AP was first seen (the collapse baseline).
	HitRatio          float64            `json:"hit_ratio"`
	HitRatioLong      float64            `json:"hit_ratio_long"`
	StaleServesPerMin float64            `json:"stale_serves_per_min"`
	DelegFailRatio    float64            `json:"deleg_fail_ratio"`
	SnapshotAgeSec    float64            `json:"snapshot_age_sec"`
	Seq               uint64             `json:"seq"`
	Penalties         map[string]float64 `json:"penalties,omitempty"`
}

// Health-score weights and floors. The score starts at 100 and loses
// weighted penalties; signals with too little traffic in the window are
// skipped rather than guessed at.
const (
	healthMinLookups     = 10  // lookups needed before hit-ratio signals count
	healthMinDelegations = 5   // delegations needed before the failure signal counts
	hitCollapseWeight    = 50  // points lost per unit of hit-ratio collapse
	staleSpikeWeight     = 1.5 // points lost per stale serve per minute
	staleSpikeCap        = 15
	delegFailWeight      = 35 // points lost per unit delegation failure ratio
	staleSnapshotWeight  = 10 // points lost per missed snapshot interval
	staleSnapshotCap     = 40
)

// Status thresholds.
const (
	healthyFloor  = 85
	degradedFloor = 50
	// staleAfter multiplies the snapshot interval: an AP silent for
	// longer is reported "stale" regardless of its last-known signals.
	staleAfter = 3
)

// healthPoint is one snapshot's counters reduced to the health signals.
type healthPoint struct {
	t                   time.Time
	hits, stale, misses float64
	deleg, delegErrs    float64
}

func healthPointOf(t time.Time, snap *telemetry.Snapshot) healthPoint {
	c := func(keys ...string) float64 {
		var v float64
		for _, k := range keys {
			v += snap.Counters[k]
		}
		return v
	}
	return healthPoint{
		t:         t,
		hits:      c(`apcache_cache_serves_total{` + telemetry.LabelPair("result", "hit") + `}`),
		stale:     c(`apcache_cache_serves_total{` + telemetry.LabelPair("result", "stale") + `}`),
		misses:    c(`apcache_cache_serves_total{` + telemetry.LabelPair("result", "miss") + `}`),
		deleg:     c("apcache_delegations_total"),
		delegErrs: c("apcache_delegation_errors_total"),
	}
}

func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// healthLocked scores one AP; the caller holds the fleet store's lock.
func (f *FleetStore) healthLocked(st *apState, now time.Time) HealthReport {
	r := HealthReport{AP: st.name, Seq: st.seq, Penalties: make(map[string]float64)}
	age := now.Sub(st.recvTime)
	if age < 0 {
		age = 0
	}
	r.SnapshotAgeSec = age.Seconds()

	last := st.points[len(st.points)-1]
	first := st.first
	// Window reference: the latest point at or before now-window,
	// falling back to the oldest retained point.
	ref := st.points[0]
	cut := now.Add(-healthWindow)
	for _, p := range st.points {
		if p.t.After(cut) {
			break
		}
		ref = p
	}

	lookups := (last.hits + last.stale + last.misses) - (ref.hits + ref.stale + ref.misses)
	r.HitRatio = ratio((last.hits+last.stale)-(ref.hits+ref.stale), lookups)
	lookupsLong := (last.hits + last.stale + last.misses) - (first.hits + first.stale + first.misses)
	r.HitRatioLong = ratio((last.hits+last.stale)-(first.hits+first.stale), lookupsLong)

	window := last.t.Sub(ref.t)
	if window > 0 {
		r.StaleServesPerMin = (last.stale - ref.stale) / window.Minutes()
	}
	deleg := last.deleg - ref.deleg
	delegErrs := last.delegErrs - ref.delegErrs
	r.DelegFailRatio = ratio(delegErrs, deleg+delegErrs)

	score := 100.0
	penalize := func(name string, p float64) {
		if p > 0 {
			r.Penalties[name] = p
			score -= p
		}
	}
	if lookups >= healthMinLookups && lookupsLong >= healthMinLookups {
		if collapse := r.HitRatioLong - r.HitRatio; collapse > 0 {
			penalize("hit-collapse", hitCollapseWeight*collapse)
		}
	}
	if p := staleSpikeWeight * r.StaleServesPerMin; p > staleSpikeCap {
		penalize("stale-spike", staleSpikeCap)
	} else {
		penalize("stale-spike", p)
	}
	if deleg+delegErrs >= healthMinDelegations {
		penalize("deleg-fail", delegFailWeight*r.DelegFailRatio)
	}
	if missed := age.Seconds()/f.cfg.SnapshotInterval.Seconds() - 1; missed > 0 {
		p := staleSnapshotWeight * missed
		if p > staleSnapshotCap {
			p = staleSnapshotCap
		}
		penalize("stale-snapshot", p)
	}
	if score < 0 {
		score = 0
	}
	r.Score = score

	switch {
	case age > staleAfter*f.cfg.SnapshotInterval:
		r.Status = "stale"
	case score >= healthyFloor:
		r.Status = "healthy"
	case score >= degradedFloor:
		r.Status = "degraded"
	default:
		r.Status = "critical"
	}
	return r
}
