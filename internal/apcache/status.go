package apcache

import (
	"encoding/json"
	"time"

	"apecache/internal/cachepolicy"
	"apecache/internal/httplite"
)

// Status is the operational snapshot served at GET /status — what an
// operator (or cmd/apectl) sees when inspecting a running AP.
type Status struct {
	// Cache occupancy.
	CacheUsedBytes int64 `json:"cache_used_bytes"`
	CacheCapacity  int64 `json:"cache_capacity_bytes"`
	Entries        int   `json:"entries"`
	// Management counters.
	Insertions int `json:"insertions"`
	Updates    int `json:"updates"`
	Evictions  int `json:"evictions"`
	Expired    int `json:"expired"`
	Blocked    int `json:"blocked"`
	// Runtime counters.
	Delegations int    `json:"delegations"`
	Prefetches  int    `json:"prefetches"`
	DNSHits     int    `json:"dns_cache_hits"`
	DNSMisses   int    `json:"dns_cache_misses"`
	Policy      string `json:"policy"`
	UptimeSec   int64  `json:"uptime_sec"`
	// Coherence counters.
	Coherence     string `json:"coherence"`
	Purges        int    `json:"purges"`
	Revalidations int    `json:"revalidations"`
	StaleServes   int    `json:"stale_serves"`
	StaleDrops    int    `json:"stale_drops"`
	// Cooperative mesh counters. Mesh is the directory address ("off"
	// when disabled); DelegationBytes pairs with PeerBytes so operators
	// can read the backhaul split at a glance.
	Mesh            string `json:"mesh"`
	PeerHits        int    `json:"peer_hits"`
	PeerFallbacks   int    `json:"peer_fallbacks"`
	PeerBytes       int64  `json:"peer_bytes"`
	DelegationBytes int64  `json:"delegation_bytes"`
	// Storage fairness: Gini is the inequality of per-app storage
	// efficiency C_a (PACM's θ constraint, §V-C); PerApp breaks the cache
	// down by app.
	Gini   float64                  `json:"gini"`
	PerApp []cachepolicy.AppStorage `json:"per_app,omitempty"`
	// Decision-ledger attribution (omitted entirely when the ledger is
	// off, keeping the status bytes identical to seed).
	DecisionLog bool              `json:"decision_log,omitempty"`
	MissCauses  map[string]uint64 `json:"miss_causes,omitempty"`
}

// Snapshot assembles the current status.
func (ap *AP) Snapshot() Status {
	stats := ap.store.Stats()
	mesh := "off"
	if !ap.cfg.MeshAddr.IsZero() {
		mesh = ap.cfg.MeshAddr.String()
	}
	dnsHits, dnsMisses := ap.fwd.CacheStats()
	perApp, gini := ap.store.StorageReport()
	var missCauses map[string]uint64
	if ap.ledger != nil {
		missCauses = ap.ledger.Counts()
	}
	return Status{
		DecisionLog:     ap.ledger != nil,
		MissCauses:      missCauses,
		Coherence:       ap.cfg.Coherence.String(),
		Purges:          int(ap.purges.Value()),
		Revalidations:   int(ap.revalidations.Value()),
		StaleServes:     stats.StaleServes,
		StaleDrops:      stats.StaleDrops,
		Mesh:            mesh,
		PeerHits:        int(ap.peerHits.Value()),
		PeerFallbacks:   int(ap.peerFallbacks.Value()),
		PeerBytes:       ap.peerBytes.Value(),
		DelegationBytes: ap.delegationBytes.Value(),
		CacheUsedBytes:  ap.store.Used(),
		CacheCapacity:   ap.store.Capacity(),
		Entries:         ap.store.Len(),
		Insertions:      stats.Insertions,
		Updates:         stats.Updates,
		Evictions:       stats.Evictions,
		Expired:         stats.Expired,
		Blocked:         stats.Blocked,
		Delegations:     int(ap.delegations.Value()),
		Prefetches:      int(ap.prefetches.Value()),
		DNSHits:         dnsHits,
		DNSMisses:       dnsMisses,
		Policy:          ap.cfg.Policy.Name(),
		UptimeSec:       int64(ap.cfg.Env.Now().Sub(ap.started) / time.Second),
		Gini:            gini,
		PerApp:          perApp,
	}
}

// handleStatus serves GET /status.
func (ap *AP) handleStatus(*httplite.Request) *httplite.Response {
	body, err := json.MarshalIndent(ap.Snapshot(), "", "  ")
	if err != nil {
		return httplite.NewResponse(500, []byte(err.Error()))
	}
	resp := httplite.NewResponse(200, body)
	resp.Set("Content-Type", "application/json")
	return resp
}

// DefaultSweepInterval is how often the background sweeper evicts expired
// entries so idle caches do not hold dead objects until the next insert.
const DefaultSweepInterval = time.Minute

// startSweeper launches the periodic expiry sweep, driven by the AP's
// clock (virtual under simulation, so sweep times are deterministic).
func (ap *AP) startSweeper() {
	ap.tasks.Every("apcache.sweeper", DefaultSweepInterval, func() {
		ap.store.SweepExpired()
		ap.reapPrefetchWaste()
	})
}
