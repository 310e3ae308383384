package objstore

import (
	"fmt"
	"time"

	"apecache/internal/telemetry"
	"apecache/internal/transport"
)

// edgeTel holds the edge server's registered instruments; nil (server
// not instrumented) makes every hook a no-op.
type edgeTel struct {
	tel         *telemetry.Telemetry
	originFills *telemetry.Counter
}

func (t *edgeTel) fill() {
	if t != nil {
		t.originFills.Inc()
	}
}

// Instrument registers the edge cache's metrics and enables span
// recording for traced requests.
func (s *EdgeCacheServer) Instrument(tel *telemetry.Telemetry) {
	if tel == nil {
		return
	}
	m := tel.Metrics
	m.Attach("edge_cache_lookups_total", telemetry.LabelPair("result", "hit"), "edge cache lookups by result", &s.hits)
	m.Attach("edge_cache_lookups_total", telemetry.LabelPair("result", "miss"), "edge cache lookups by result", &s.misses)
	et := &edgeTel{tel: tel, originFills: m.Counter("edge_origin_fills_total", "fetch-throughs to the origin")}
	m.GaugeFunc("edge_cache_entries", "objects resident on the edge", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.cache))
	})
	s.tel.Store(et)
}

// Instrument registers the origin's request counter and enables span
// recording.
func (s *OriginServer) Instrument(tel *telemetry.Telemetry) {
	if tel == nil {
		return
	}
	s.tel.Store(tel)
	tel.Metrics.Attach("origin_requests_total", "", "objects served by the origin", &s.requests)
}

// PushSnapshots starts periodic telemetry snapshot pushes to the fleet
// controller at target, dialing from host, so the edge tier appears in
// the fleet view and its spans join stitched cross-tier traces. Call
// after Instrument; Stop the returned pusher to halt.
func (s *EdgeCacheServer) PushSnapshots(host transport.Host, target transport.Addr, interval time.Duration) (*telemetry.Pusher, error) {
	et := s.tel.Load()
	if et == nil {
		return nil, fmt.Errorf("objstore: edge server not instrumented")
	}
	p, err := telemetry.NewPusher(telemetry.PushConfig{
		Env: s.env, Tel: et.tel, Node: "edge:" + host.Name(), Host: host,
		Target: target, Interval: interval,
	})
	if err != nil {
		return nil, err
	}
	p.Start()
	return p, nil
}

// PushSnapshots is the origin-tier counterpart of the edge hook.
func (s *OriginServer) PushSnapshots(host transport.Host, target transport.Addr, interval time.Duration) (*telemetry.Pusher, error) {
	tel := s.tel.Load()
	if tel == nil {
		return nil, fmt.Errorf("objstore: origin server not instrumented")
	}
	p, err := telemetry.NewPusher(telemetry.PushConfig{
		Env: s.env, Tel: tel, Node: "origin:" + host.Name(), Host: host,
		Target: target, Interval: interval,
	})
	if err != nil {
		return nil, err
	}
	p.Start()
	return p, nil
}
