package coherence

import (
	"encoding/json"
	"sync"
	"sync/atomic"

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
// Two fan-out engines exist. The default relays each publication to all
// subscribers, one background task per delivery — simple, and fine for
// a handful of downstreams. EnableDispatch switches the hub to the
// sharded, batched Dispatcher so publication cost stays near-independent
// of fleet size; the wire stays compatible either way (subscribers that
// did not declare Batch keep receiving single-Msg bodies).
type Hub struct {
	env    vclock.Env
	client *httplite.Client
	// onPurge invalidates the local (edge) copy before the fan-out, so a
	// revalidating AP never re-fetches the stale bytes it just purged.
	onPurge func(Msg)

	mu       sync.Mutex
	subs     []Subscription
	failures map[string]int // legacy path: consecutive failures by Addr.String()
	dispatch *Dispatcher

	// Published counts accepted purge publications, Relayed the
	// per-subscriber deliveries attempted (message granularity, whatever
	// the wire batching). Atomics: safe to read live, e.g. from the
	// stats route.
	Published atomic.Int64
	Relayed   atomic.Int64
	evicted   atomic.Int64

	tel       *telemetry.Telemetry
	published *telemetry.Counter
	relayed   *telemetry.Counter
}

// Instrument registers the bus counters and a subscriber-count gauge,
// and enables purge event logging.
func (h *Hub) Instrument(tel *telemetry.Telemetry) {
	if tel == nil {
		return
	}
	m := tel.Metrics
	m.GaugeFunc("coherence_subscribers", "downstream caches registered on the bus", func() float64 {
		return float64(len(h.Subscribers()))
	})
	h.mu.Lock()
	h.tel = tel
	h.published = m.Counter("coherence_published_total", "purge publications accepted")
	h.relayed = m.Counter("coherence_relayed_total", "per-subscriber purge deliveries attempted")
	h.mu.Unlock()
}

// NewHub builds a hub that dials subscribers from host. onPurge may be
// nil when there is no colocated cache to invalidate.
func NewHub(env vclock.Env, host transport.Host, onPurge func(Msg)) *Hub {
	return &Hub{
		env:      env,
		client:   httplite.NewClient(host),
		onPurge:  onPurge,
		failures: make(map[string]int),
	}
}

// EnableDispatch switches the hub's fan-out to a sharded, batched
// dispatcher (starting its worker pool on the hub's env) and returns it.
// Call before serving traffic, from a sim task when under the virtual
// clock; already-registered subscribers migrate over.
func (h *Hub) EnableDispatch(cfg DispatchConfig) *Dispatcher {
	d := NewDispatcher(h.env, h.client, cfg)
	h.mu.Lock()
	migrate := h.subs
	h.subs = nil
	h.dispatch = d
	h.mu.Unlock()
	for _, sub := range migrate {
		d.Register(sub)
	}
	return d
}

// Dispatcher returns the attached dispatcher, nil when the hub runs the
// legacy per-delivery fan-out.
func (h *Hub) Dispatcher() *Dispatcher {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dispatch
}

var _ httplite.Handler = (*Hub)(nil)

// Subscribers returns a snapshot of the registered subscriber endpoints.
func (h *Hub) Subscribers() []transport.Addr {
	h.mu.Lock()
	d := h.dispatch
	subs := h.subs
	if d == nil {
		subs = append([]Subscription(nil), subs...)
	}
	h.mu.Unlock()
	if d != nil {
		subs = d.Subscribers()
	}
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

// Stats snapshots the hub counters (and the dispatcher's, when one is
// enabled).
func (h *Hub) Stats() HubStats {
	st := HubStats{
		Published:   h.Published.Load(),
		Relayed:     h.Relayed.Load(),
		Subscribers: len(h.Subscribers()),
		Evicted:     h.evicted.Load(),
	}
	if d := h.Dispatcher(); d != nil {
		ds := d.Stats()
		st.Evicted += ds.Evicted
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

func (h *Hub) handleSubscribe(req *httplite.Request) *httplite.Response {
	var sub Subscription
	if err := json.Unmarshal(req.Body, &sub); err != nil || sub.Addr.IsZero() {
		return httplite.NewResponse(400, []byte("bad subscription body"))
	}
	if sub.Path == "" {
		sub.Path = DefaultPurgePath
	}
	h.mu.Lock()
	if d := h.dispatch; d != nil {
		h.mu.Unlock()
		d.Register(sub)
		return httplite.NewResponse(200, nil)
	}
	defer h.mu.Unlock()
	delete(h.failures, sub.Addr.String())
	for i, s := range h.subs {
		if s.Addr == sub.Addr {
			// Idempotent re-subscribe: one endpoint holds exactly one
			// registration. A restarted daemon (possibly announcing a new
			// purge path) replaces its old entry instead of appending a
			// duplicate that would double every purge delivery.
			h.subs[i] = sub
			return httplite.NewResponse(200, nil)
		}
	}
	h.subs = append(h.subs, sub)
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
	if d := h.Dispatcher(); d != nil {
		n := d.Publish(msg)
		h.Published.Add(1)
		h.Relayed.Add(int64(n))
		h.mu.Lock()
		tel := h.tel
		h.mu.Unlock()
		h.published.Inc()
		h.relayed.Add(int64(n))
		tel.Emit("purge", "url", msg.URL, "version", msg.Version, "gone", msg.Gone, "subscribers", n)
		return httplite.NewResponse(200, nil)
	}
	h.mu.Lock()
	h.Published.Add(1)
	subs := make([]Subscription, len(h.subs))
	copy(subs, h.subs)
	h.Relayed.Add(int64(len(subs)))
	tel := h.tel
	h.published.Inc()
	h.relayed.Add(int64(len(subs)))
	h.mu.Unlock()
	tel.Emit("purge", "url", msg.URL, "version", msg.Version, "gone", msg.Gone, "subscribers", len(subs))

	body, _ := json.Marshal(msg)
	for _, sub := range subs {
		sub := sub
		// Relay in background tasks: publication latency must not grow
		// with fleet size, and one dead subscriber must not stall the
		// rest. Delivery is best-effort, like the edge's TTLs it rides
		// over — a lost purge degrades to TTL-only behaviour.
		h.env.Go("coherence.relay", func() {
			preq := httplite.NewRequest("POST", sub.Addr.Host, sub.Path)
			preq.Body = body
			resp, derr := h.client.Do(sub.Addr, preq)
			h.deliveryResult(sub.Addr, derr == nil && resp.Status == 200)
		})
	}
	return httplite.NewResponse(200, nil)
}

// deliveryResult tracks consecutive legacy-path delivery failures and
// evicts an endpoint once they reach DefaultMaxFailures: a dead AP must
// not be dialed on every purge forever, and its restart re-subscribes
// anyway.
func (h *Hub) deliveryResult(addr transport.Addr, ok bool) {
	key := addr.String()
	h.mu.Lock()
	defer h.mu.Unlock()
	if ok {
		delete(h.failures, key)
		return
	}
	h.failures[key]++
	if h.failures[key] < DefaultMaxFailures {
		return
	}
	delete(h.failures, key)
	for i, s := range h.subs {
		if s.Addr == addr {
			h.subs = append(h.subs[:i], h.subs[i+1:]...)
			h.evicted.Add(1)
			return
		}
	}
}
