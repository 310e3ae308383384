package wicache

import (
	"apecache/internal/telemetry"
)

// Instrument attaches the controller's counters to tel's registry.
func (c *Controller) Instrument(tel *telemetry.Telemetry) {
	if tel == nil {
		return
	}
	m := tel.Metrics
	m.Attach("wicache_locates_total", "", "client locate requests handled", &c.locates)
	m.Attach("wicache_controller_purges_total", "", "bus purge messages handled", &c.purges)
	m.Attach("wicache_purge_relays_total", "", "per-AP purge deliveries ordered", &c.relays)
	c.fillOrdersC = m.Counter("wicache_fill_orders_total", "background AP fills ordered on locate miss")
}

// Instrument attaches the AP's counters and instruments its LRU store
// under the wicache_ap metric prefix.
func (s *APServer) Instrument(tel *telemetry.Telemetry) {
	if tel == nil {
		return
	}
	s.store.Instrument(tel, "wicache_ap")
	m := tel.Metrics
	m.Attach("wicache_ap_fills_total", "", "controller-ordered fills stored", &s.fills)
	m.Attach("wicache_ap_purges_total", "", "relayed purges applied", &s.purges)
}
