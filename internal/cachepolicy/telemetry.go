package cachepolicy

import (
	"sort"

	"apecache/internal/telemetry"
)

// storeTel holds a Store's registered instruments. A nil *storeTel (the
// uninstrumented default) makes every hook a no-op branch, keeping the
// read path unchanged for stores created outside a daemon.
type storeTel struct {
	hits   *telemetry.Counter
	misses *telemetry.Counter

	evictPurged *telemetry.Counter
	selection   *telemetry.Histogram
}

// Instrument registers the store's metrics on tel under the given name
// prefix (e.g. "apcache" → apcache_store_lookups_total), attaching the
// store's own management counters. Call once, before serving traffic.
//
// Hot-path cost is deliberately minimal: Get adds exactly one atomic
// increment; everything richer (gauges, per-app efficiency, Gini) is
// computed at exposition time from a snapshot.
func (s *Store) Instrument(tel *telemetry.Telemetry, prefix string) {
	m := tel.Metrics
	t := &storeTel{}
	t.hits = m.LabeledCounter(prefix+"_store_lookups_total", telemetry.LabelPair("result", "hit"), "store Get results")
	t.misses = m.LabeledCounter(prefix+"_store_lookups_total", telemetry.LabelPair("result", "miss"), "store Get results")
	m.Attach(prefix+"_store_insertions_total", "", "objects admitted", &s.insertions)
	m.Attach(prefix+"_store_updates_total", "", "resident objects refreshed", &s.updates)
	m.Attach(prefix+"_store_blocked_total", "", "oversized objects block-listed", &s.blocked)
	m.Attach(prefix+"_store_stale_drops_total", "", "puts dropped below the purge high-water mark", &s.staleDrops)
	m.Attach(prefix+"_store_evictions_total", telemetry.LabelPair("cause", "capacity"), "evictions by cause", &s.evictions)
	m.Attach(prefix+"_store_evictions_total", telemetry.LabelPair("cause", "expired"), "evictions by cause", &s.expired)
	t.evictPurged = m.LabeledCounter(prefix+"_store_evictions_total", telemetry.LabelPair("cause", "purged"), "evictions by cause")
	m.Attach(prefix+"_store_stale_serves_total", "", "stale-while-revalidate serves", &s.staleServes)
	t.selection = m.Histogram(prefix+"_pacm_selection_seconds", "victim-selection wall time per admission", telemetry.ComputeBuckets)
	// Selection time is wall-clock CPU cost, nondeterministic by nature;
	// keep it off the snapshot wire so fleet runs stay reproducible.
	m.SetLocal(prefix + "_pacm_selection_seconds")
	m.GaugeFunc(prefix+"_store_entries", "resident objects", func() float64 { return float64(s.Len()) })
	m.GaugeFunc(prefix+"_store_used_bytes", "resident payload bytes", func() float64 { return float64(s.Used()) })
	m.GaugeFunc(prefix+"_store_capacity_bytes", "configured capacity", func() float64 { return float64(s.Capacity()) })
	m.GaugeFunc(prefix+"_store_gini", "Gini coefficient of per-app storage efficiency (PACM fairness input)", func() float64 {
		_, gini := s.StorageReport()
		return gini
	})
	m.Collect(prefix+"_store_app_bytes", "resident bytes per app", telemetry.KindGauge, func(dst []telemetry.Sample) []telemetry.Sample {
		report, _ := s.StorageReport()
		for _, a := range report {
			dst = append(dst, telemetry.Sample{Labels: telemetry.LabelPair("app", a.App), Value: float64(a.Bytes)})
		}
		return dst
	})
	m.Collect(prefix+"_store_app_efficiency", "per-app storage efficiency C_a = bytes/R(a)", telemetry.KindGauge, func(dst []telemetry.Sample) []telemetry.Sample {
		report, _ := s.StorageReport()
		for _, a := range report {
			dst = append(dst, telemetry.Sample{Labels: telemetry.LabelPair("app", a.App), Value: a.Efficiency})
		}
		return dst
	})
	m.Collect(prefix+"_store_app_utility", "summed PACM utility U_d per app", telemetry.KindGauge, func(dst []telemetry.Sample) []telemetry.Sample {
		report, _ := s.StorageReport()
		for _, a := range report {
			dst = append(dst, telemetry.Sample{Labels: telemetry.LabelPair("app", a.App), Value: a.Utility})
		}
		return dst
	})
	s.mu.Lock()
	s.tel = t
	s.mu.Unlock()
}

func (t *storeTel) lookup(hit bool) {
	if t == nil {
		return
	}
	if hit {
		t.hits.Inc()
	} else {
		t.misses.Inc()
	}
}

// evictedByPurge counts one purge that removed a resident copy. It is
// counted here because StoreStats.Purged also counts the
// stale-while-revalidate copies a purge keeps.
func (t *storeTel) evictedByPurge() {
	if t != nil {
		t.evictPurged.Inc()
	}
}

// AppStorage is one app's slice of the cache in a StorageReport: how
// many bytes it occupies, its request rate R(a), the resulting storage
// efficiency C_a = bytes/R(a) that the PACM fairness constraint bounds,
// and the summed utility of its resident objects.
type AppStorage struct {
	App        string  `json:"app"`
	Entries    int     `json:"entries"`
	Bytes      int64   `json:"bytes"`
	Rate       float64 `json:"rate"`
	Efficiency float64 `json:"efficiency"`
	Utility    float64 `json:"utility"`
}

// StorageReport summarizes the resident set per app (sorted by app
// name) together with the current Gini coefficient over the per-app
// storage efficiencies — the live view of the PACM fairness constraint
// F(A) ≤ θ.
func (s *Store) StorageReport() ([]AppStorage, float64) {
	s.mu.RLock()
	now := s.clock.Now()
	entries := s.appendEntries(nil)
	s.mu.RUnlock()
	// Accumulate per-app utility in insertion order: summing floats in
	// map-iteration order would leak nondeterminism into the report.
	sort.Slice(entries, func(i, j int) bool { return entries[i].seq < entries[j].seq })
	per := make(map[string]*AppStorage)
	for _, e := range entries {
		app := e.Object.App
		a := per[app]
		if a == nil {
			a = &AppStorage{App: app, Rate: s.freq.Rate(app)}
			per[app] = a
		}
		a.Entries++
		a.Bytes += e.Size()
		a.Utility += utilityAtRate(e, now, a.Rate)
	}

	eff := make(map[string]float64, len(per))
	out := make([]AppStorage, 0, len(per))
	for app, a := range per {
		r := a.Rate
		if r < MinRate {
			r = MinRate
		}
		a.Efficiency = float64(a.Bytes) / r
		eff[app] = a.Efficiency
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].App < out[j].App })
	return out, Gini(eff)
}
