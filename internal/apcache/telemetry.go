package apcache

import (
	"apecache/internal/telemetry"
)

// apTel holds the AP runtime's registered instruments (the store's own
// live under the same registry via Store.Instrument). The counters the
// AP keeps itself are attached to the same registry.
type apTel struct {
	tel *telemetry.Telemetry

	dnsPlain  *telemetry.Counter
	dnsCache  *telemetry.Counter
	dummyHits *telemetry.Counter

	serveHit   *telemetry.Counter
	serveStale *telemetry.Counter
	serveMiss  *telemetry.Counter
	serveSecs  *telemetry.Histogram

	delegationErrors *telemetry.Counter
	delegationSecs   *telemetry.Histogram

	prefetchFills *telemetry.Counter
	prefetchUsed  *telemetry.Counter
	prefetchWaste *telemetry.Counter
}

func newAPTel(tel *telemetry.Telemetry, ap *AP) *apTel {
	m := tel.Metrics
	t := &apTel{tel: tel}
	t.dnsPlain = m.LabeledCounter("apcache_dns_queries_total", telemetry.LabelPair("kind", "plain"), "DNS queries by kind")
	t.dnsCache = m.LabeledCounter("apcache_dns_queries_total", telemetry.LabelPair("kind", "cache"), "DNS queries by kind")
	t.dummyHits = m.Counter("apcache_dummy_ip_total", "DNS-Cache answers short-circuited with the dummy IP")
	t.serveHit = m.LabeledCounter("apcache_cache_serves_total", telemetry.LabelPair("result", "hit"), "AP object serves by result")
	t.serveStale = m.LabeledCounter("apcache_cache_serves_total", telemetry.LabelPair("result", "stale"), "AP object serves by result")
	t.serveMiss = m.LabeledCounter("apcache_cache_serves_total", telemetry.LabelPair("result", "miss"), "AP object serves by result")
	t.serveSecs = m.Histogram("apcache_serve_seconds", "cached serve latency, hit and stale serves (virtual time under simnet)", telemetry.DurationBuckets)
	m.Attach("apcache_delegations_total", "", "edge fetch-throughs completed", &ap.delegations)
	t.delegationErrors = m.Counter("apcache_delegation_errors_total", "edge fetch-throughs failed")
	t.delegationSecs = m.Histogram("apcache_delegation_seconds", "edge retrieval latency per delegation (l_d; virtual time under simnet)", telemetry.DurationBuckets)
	m.Attach("apcache_prefetches_total", "", "dependency-driven background warm-ups", &ap.prefetches)
	t.prefetchFills = m.Counter("apcache_prefetch_fills_total", "prefetched objects admitted to the cache")
	t.prefetchUsed = m.Counter("apcache_prefetch_used_total", "prefetched objects that later served a cache hit")
	t.prefetchWaste = m.Counter("apcache_prefetch_wasted_bytes_total", "bytes prefetched but evicted or expired before serving a hit")
	m.Attach("apcache_purges_total", "", "coherence bus purge messages applied", &ap.purges)
	m.Attach("apcache_revalidations_total", "", "background conditional re-fetches completed", &ap.revalidations)
	m.GaugeFunc("apcache_dns_forwarder_hits", "forwarder DNS cache hits", func() float64 {
		h, _ := ap.fwd.CacheStats()
		return float64(h)
	})
	m.GaugeFunc("apcache_dns_forwarder_misses", "forwarder DNS cache misses", func() float64 {
		_, mi := ap.fwd.CacheStats()
		return float64(mi)
	})
	m.GaugeFunc("apcache_prefetch_precision", "share of prefetch fills that went on to serve a hit", func() float64 {
		fills := t.prefetchFills.Value()
		if fills == 0 {
			return 0
		}
		return float64(t.prefetchUsed.Value()) / float64(fills)
	})
	m.GaugeFunc("apcache_prefetch_recall", "share of cache hits served by prefetched objects", func() float64 {
		hits := t.serveHit.Value()
		if hits == 0 {
			return 0
		}
		return float64(t.prefetchUsed.Value()) / float64(hits)
	})
	// Prefetch effectiveness depends on the wall-ordering of background
	// fills, so keep the whole family off the snapshot wire: fleet runs
	// stay byte-identical with these instruments registered.
	for _, name := range []string{
		"apcache_prefetch_fills_total", "apcache_prefetch_used_total",
		"apcache_prefetch_wasted_bytes_total",
		"apcache_prefetch_precision", "apcache_prefetch_recall",
	} {
		m.SetLocal(name)
	}
	return t
}

// nodeName labels this AP's spans and fleet snapshots.
func (ap *AP) nodeName() string {
	if ap.cfg.NodeName != "" {
		return ap.cfg.NodeName
	}
	return "ap:" + ap.cfg.Host.Name()
}
