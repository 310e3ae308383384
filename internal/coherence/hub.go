package coherence

import (
	"encoding/json"

	"apecache/internal/httplite"
	"apecache/internal/telemetry"
	"apecache/internal/transport"
	"apecache/internal/vclock"
)

// Hub is the invalidation bus: it accepts purge publications from the
// origin, applies them locally (normally to the colocated edge cache)
// and relays them to every subscribed downstream cache. It implements
// httplite.Handler for the PathSubscribe, PathPublish and PathStats
// routes, so it shares the edge server's port via Wrap.
//
// The hub's Dispatcher is its subscriber registry and its fan-out. By
// default it relays each publication to all subscribers, one background
// task per delivery — simple, and fine for a handful of downstreams.
// EnableDispatch switches it to sharded, batched delivery so publication
// cost stays near-independent of fleet size; the wire stays compatible
// either way (subscribers that did not declare Batch keep receiving
// single-Msg bodies).
type Hub struct {
	// onPurge invalidates the local (edge) copy before the fan-out, so a
	// revalidating AP never re-fetches the stale bytes it just purged.
	onPurge  func(Msg)
	dispatch *Dispatcher

	// published counts accepted purge publications, relayed the
	// per-subscriber deliveries attempted (message granularity, whatever
	// the wire batching).
	published telemetry.Counter
	relayed   telemetry.Counter
}

// Instrument registers the bus counters and a subscriber-count gauge.
func (h *Hub) Instrument(tel *telemetry.Telemetry) {
	if tel == nil {
		return
	}
	m := tel.Metrics
	m.GaugeFunc("coherence_subscribers", "downstream caches registered on the bus", func() float64 {
		return float64(len(h.Subscribers()))
	})
	m.Attach("coherence_published_total", "", "purge publications accepted", &h.published)
	m.Attach("coherence_relayed_total", "", "per-subscriber purge deliveries attempted", &h.relayed)
}

// NewHub builds a hub that dials subscribers from host. onPurge may be
// nil when there is no colocated cache to invalidate.
func NewHub(env vclock.Env, host transport.Host, onPurge func(Msg)) *Hub {
	return &Hub{
		onPurge:  onPurge,
		dispatch: NewDispatcher(env, httplite.NewClient(host)),
	}
}

// EnableDispatch switches the hub's fan-out to sharded, batched delivery
// (Dispatcher.Start) and returns the dispatcher. Call before serving
// traffic, from a sim task when under the virtual clock;
// already-registered subscribers carry over.
func (h *Hub) EnableDispatch(cfg DispatchConfig) *Dispatcher {
	h.dispatch.Start(cfg)
	return h.dispatch
}

var _ httplite.Handler = (*Hub)(nil)

// Subscribers returns a snapshot of the registered subscriber endpoints.
func (h *Hub) Subscribers() []transport.Addr {
	subs := h.dispatch.Subscribers()
	out := make([]transport.Addr, 0, len(subs))
	for _, s := range subs {
		out = append(out, s.Addr)
	}
	return out
}

// HubStats is the PathStats payload.
type HubStats struct {
	Published   int64          `json:"published"`
	Relayed     int64          `json:"relayed"`
	Subscribers int            `json:"subscribers"`
	Evicted     int64          `json:"evicted"`
	Dispatch    *DispatchStats `json:"dispatch,omitempty"`
}

// Stats snapshots the hub counters (and the dispatcher's, once sharded
// delivery is enabled).
func (h *Hub) Stats() HubStats {
	ds := h.dispatch.Stats()
	st := HubStats{
		Published:   h.published.Value(),
		Relayed:     h.relayed.Value(),
		Subscribers: ds.Subscribers,
		Evicted:     ds.Evicted,
	}
	if ds.Shards > 0 {
		st.Dispatch = &ds
	}
	return st
}

// ServeHTTP implements httplite.Handler for the bus routes.
func (h *Hub) ServeHTTP(req *httplite.Request) *httplite.Response {
	switch {
	case req.Path == PathSubscribe:
		return h.handleSubscribe(req)
	case req.Path == PathPublish:
		return h.handlePublish(req)
	case req.Path == PathStats:
		return h.handleStats(req)
	default:
		return httplite.NewResponse(404, []byte("unknown bus route"))
	}
}

// Wrap returns a handler that routes bus paths to the hub and everything
// else to next — how the hub shares the edge cache server's port.
func (h *Hub) Wrap(next httplite.Handler) httplite.Handler {
	mux := httplite.NewMux()
	mux.Handle(PathPrefix, h)
	mux.Handle("/", next)
	return mux
}

func (h *Hub) handleStats(req *httplite.Request) *httplite.Response {
	body, err := json.MarshalIndent(h.Stats(), "", "  ")
	if err != nil {
		return httplite.NewResponse(500, []byte(err.Error()))
	}
	resp := httplite.NewResponse(200, body)
	resp.Set("Content-Type", "application/json")
	return resp
}

// handleSubscribe registers a downstream endpoint. Re-subscribing is
// idempotent: a restarted daemon (possibly announcing a new purge path)
// replaces its old registration instead of adding a duplicate that would
// double every purge delivery.
func (h *Hub) handleSubscribe(req *httplite.Request) *httplite.Response {
	var sub Subscription
	if err := json.Unmarshal(req.Body, &sub); err != nil || sub.Addr.IsZero() {
		return httplite.NewResponse(400, []byte("bad subscription body"))
	}
	if sub.Path == "" {
		sub.Path = DefaultPurgePath
	}
	h.dispatch.Register(sub)
	return httplite.NewResponse(200, nil)
}

func (h *Hub) handlePublish(req *httplite.Request) *httplite.Response {
	msg, err := ParseMsg(req.Body)
	if err != nil {
		return httplite.NewResponse(400, []byte(err.Error()))
	}
	// Invalidate the colocated edge copy first: by the time any
	// subscriber revalidates, the edge fetch-through path already serves
	// the new version.
	if h.onPurge != nil {
		h.onPurge(msg)
	}
	n := h.dispatch.Publish(msg)
	h.published.Inc()
	h.relayed.Add(int64(n))
	return httplite.NewResponse(200, nil)
}
