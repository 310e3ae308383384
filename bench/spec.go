package main

import (
	"time"

	"apecache/internal/coherence"
)

// Load model constants. They are fixed, not derived from the machine, so
// numbers from different machines and commits stay comparable.
const (
	// numClients closed-loop client goroutines (= nproc on the sandbox the
	// benchmark was sized for).
	numClients = 2
	// cacheCapacity is the paper's AP cache size.
	cacheCapacity = 5 << 20
	objectTTL     = 10 * time.Minute
	// clientFlagTTL makes every op the paper's unit: one DNS-Cache lookup
	// plus one flag-dispatched fetch.
	clientFlagTTL = time.Nanosecond
	// warmupTime of the workload runs unmeasured after every object was
	// fetched once; it is part of setup_s.
	warmupTime = 2 * time.Second
	// roundsPerRun fresh stacks per workload; a metric is the median of
	// its rounds.
	roundsPerRun = 3
	// latencyWindow is the nominal length of one p99 window.
	latencyWindow = 2 * time.Second
	// maxFailedRatio is the output check on failed / attempted.
	maxFailedRatio = 0.001
	// opsPerClient is the length of each client's pre-generated op list;
	// a client wraps around if it ever gets that far.
	opsPerClient = 1 << 17
	// Fixed probe payload sizes behind the *_small / *_large metrics.
	smallBody = 2 << 10
	largeBody = 256 << 10
)

// workloadSpec is one traffic mix. The servers see only what generate
// derives from it and the seed.
type workloadSpec struct {
	name, why string
	objects   int
	objSize   int
	domains   int     // one app per domain
	zipfS     float64 // 0 = uniform popularity
	coherence coherence.Mode
	// purgeEvery > 0: before every purgeEvery-th op a client bumps one of
	// its objects at the origin and publishes the purge.
	purgeEvery int
	// staleBound: a body of version v is a failure when v+1's publish
	// returned more than this before the Get began.
	staleBound time.Duration
	// openLoopRate is the fixed arrival rate of the diagnostic open-loop
	// pass, ops/s over all clients.
	openLoopRate int
}

var workloads = []workloadSpec{
	{
		name: "hit-small", objects: 64, objSize: 2 << 10, domains: 4, openLoopRate: 3000,
		why: "64 x 2 KiB objects, uniform, all cached: per-message cost (DNS codec, UDP, HTTP parse/route, store read) dominates; PACM and the edge are bypassed",
	},
	{
		name: "hit-large", objects: 12, objSize: 256 << 10, domains: 4, openLoopRate: 2500,
		why: "12 x 256 KiB objects, uniform, all cached: body write/read/copy and TCP dominate; DNS and header cost are diluted",
	},
	{
		name: "miss-churn", objects: 2048, objSize: 16 << 10, domains: 8, zipfS: 1.1, openLoopRate: 2000,
		why: "2048 x 16 KiB objects (6.4x the cache), Zipf 1.1: a third of ops delegate to the edge and admit under PACM eviction at capacity",
	},
	{
		name: "purge-mix", objects: 512, objSize: 16 << 10, domains: 8, zipfS: 1.2, openLoopRate: 3000,
		coherence: coherence.ModeSWR, purgeEvery: 40, staleBound: 100 * time.Millisecond,
		why: "512 x 16 KiB objects (1.6x the cache), Zipf 1.2, SWR coherence with a purge before every 40th op: hub relay, Store.Purge and revalidation beside reads",
	},
}

// fitsCache reports whether the whole working set stays resident, so that
// after set-up every op is a hit.
func (w workloadSpec) fitsCache() bool {
	return w.purgeEvery == 0 && w.objects*w.objSize <= cacheCapacity
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricDef names one reported metric. higher reports the better
// direction; the A/A check and the report use it.
type metricDef struct {
	name, unit string
	higher     bool
}

// endToEnd lists the gated metrics in report order; BENCHMARK.json holds
// their bounds and the smoke test keeps the two in step.
var endToEnd = []metricDef{
	{"throughput_rps", "op/s", true},
	{"latency_p50_us", "us", false},
	{"latency_p99_us", "us", false},
	{"cpu_us_per_op", "us", false},
	{"hit_ratio", "ratio", true},
	{"setup_s", "s", false},
}

// perLayer lists the ungated layer metrics, grouped by module name.
var perLayer = []metricDef{
	{"realnet.udp_rtt_us", "us", false},
	{"realnet.tcp_rtt_small_us", "us", false},
	{"realnet.tcp_rtt_large_us", "us", false},
	{"realnet.udp_read_alloc_bytes", "bytes", false},

	{"dnswire.encode_query_ns", "ns", false},
	{"dnswire.decode_query_ns", "ns", false},
	{"dnswire.decode_query_allocs", "count", false},
	{"dnswire.encode_response_ns", "ns", false},
	{"dnswire.encode_response_allocs", "count", false},
	{"dnswire.decode_response_ns", "ns", false},
	{"dnswire.decode_response_allocs", "count", false},
	{"dnswire.parse_cache_rr_ns", "ns", false},

	{"dnsd.query_rtt_us", "us", false},
	{"dnsd.query_alloc_bytes", "bytes", false},
	{"dnsd.self_us", "us", false},
	{"dnsd.plain_forward_us", "us", false},

	{"apcache.handle_dns_ns", "ns", false},
	{"apcache.handle_dns_allocs", "count", false},
	{"apcache.dns_cache_query_us", "us", false},
	{"apcache.dns_cache_delta_us", "us", false},
	{"apcache.cache_get_small_us", "us", false},
	{"apcache.cache_get_large_us", "us", false},
	{"apcache.cache_get_self_us", "us", false},
	{"apcache.delegate_us", "us", false},
	{"apcache.delegate_self_us", "us", false},
	{"apcache.purge_us", "us", false},
	{"apcache.dummy_ip_ratio", "ratio", true},
	{"apcache.delegations_per_op", "ratio", false},
	{"apcache.backhaul_bytes_per_op", "bytes", false},
	{"apcache.revalidations_per_purge", "ratio", false},

	{"httplite.read_request_ns", "ns", false},
	{"httplite.read_request_allocs", "count", false},
	{"httplite.write_request_ns", "ns", false},
	{"httplite.write_response_small_ns", "ns", false},
	{"httplite.write_response_large_ns", "ns", false},
	{"httplite.write_response_allocs", "count", false},
	{"httplite.write_response_writes", "count", false},
	{"httplite.read_response_small_ns", "ns", false},
	{"httplite.read_response_large_ns", "ns", false},
	{"httplite.read_response_allocs", "count", false},
	{"httplite.mux_route_ns", "ns", false},
	{"httplite.roundtrip_small_us", "us", false},
	{"httplite.roundtrip_large_us", "us", false},

	{"cachepolicy.get_ns", "ns", false},
	{"cachepolicy.flag_by_hash_ns", "ns", false},
	{"cachepolicy.known_hashes_ns", "ns", false},
	{"cachepolicy.record_request_ns", "ns", false},
	{"cachepolicy.put_at_capacity_us", "us", false},
	{"cachepolicy.put_allocs", "count", false},
	{"cachepolicy.purge_ns", "ns", false},
	{"cachepolicy.evictions_per_put", "ratio", false},

	{"objstore.edge_serve_ns", "ns", false},
	{"objstore.edge_fetch_us", "us", false},

	{"coherence.publish_us", "us", false},
	{"coherence.relay_p50_us", "us", false},
	{"coherence.relay_p99_us", "us", false},
	{"coherence.relayed_per_publish", "ratio", false},

	{"apeclient.get_serial_us", "us", false},
	{"apeclient.self_us", "us", false},

	{"budget.lookup_residual_pct", "%", false},
	{"budget.fetch_hit_residual_pct", "%", false},
	{"budget.fetch_miss_residual_pct", "%", false},

	{"trace.overhead_pct", "%", false},
	{"trace.spans_per_op", "count", false},

	{"runtime.allocs_per_op", "count", false},
	{"runtime.alloc_bytes_per_op", "bytes", false},
	{"runtime.gc_cycles_per_kop", "count", false},
	{"runtime.gc_pause_ms", "ms", false},
	{"runtime.peak_rss_mb", "MB", false},
	{"runtime.goroutines_peak", "count", false},

	{"loadgen.openloop_p50_us", "us", false},
	{"loadgen.openloop_p99_us", "us", false},
	{"loadgen.late_p99_us", "us", false},
	{"loadgen.round_spread_pct", "%", false},
	{"loadgen.failed_ratio", "ratio", false},
}
