package coherence

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"

	"apecache/internal/httplite"
	"apecache/internal/vclock"
)

// DispatchConfig tunes the dispatcher's sharded, batched delivery.
type DispatchConfig struct {
	// Shards is the consistent-hash shard count for domain interest
	// (default 8).
	Shards int
	// FlushInterval is the coalescing tick: each worker drains its
	// subscribers' queues once per interval (default 5ms).
	FlushInterval time.Duration
	// MaxBatch caps the messages carried by one wire batch; longer queues
	// are split across consecutive POSTs within the same flush
	// (default 256).
	MaxBatch int
}

// Dispatch defaults.
const (
	DefaultShards        = 8
	DefaultFlushInterval = 5 * time.Millisecond
	DefaultMaxBatch      = 256
)

// Fixed dispatcher parameters.
const (
	// DefaultWorkers is the size of the drain pool; each subscriber is
	// pinned to one worker.
	DefaultWorkers = 4
	// DefaultQueueLen bounds each subscriber's pending purge buffer; once
	// full, further purges for that subscriber are dropped and counted —
	// lost purges degrade to TTL expiry, like every other best-effort
	// loss on the bus.
	DefaultQueueLen = 1024
	// DefaultMaxFailures is the consecutive delivery-failure count after
	// which a subscriber is evicted, under either delivery discipline (a
	// restarted daemon re-registers through the idempotent subscribe
	// path).
	DefaultMaxFailures = 8
)

func (c DispatchConfig) withDefaults() DispatchConfig {
	if c.Shards <= 0 {
		c.Shards = DefaultShards
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = DefaultFlushInterval
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	return c
}

// DispatchStats is a point-in-time view of the dispatcher.
type DispatchStats struct {
	Subscribers int `json:"subscribers"`
	Shards      int `json:"shards"`
	Workers     int `json:"workers"`
	// Queued is the purge messages pending across all subscriber queues.
	Queued int `json:"queued"`
	// Batches counts wire POSTs attempted, Delivered the purge messages
	// carried by the successful ones.
	Batches   int64 `json:"batches"`
	Delivered int64 `json:"delivered"`
	// Dropped counts messages discarded at full queues or on eviction.
	Dropped int64 `json:"dropped"`
	// Evicted counts registrations removed after consecutive failures.
	Evicted int64 `json:"evicted"`
}

// dispatchSub is one registered subscriber and its bounded queue.
type dispatchSub struct {
	key    string           // sub.Addr.String(), fixed for the registration's life
	shards map[int]struct{} // nil: interested in every shard; guarded by Dispatcher.mu
	worker int

	mu       sync.Mutex
	sub      Subscription // written under both locks: either one reads it
	pending  []Msg
	failures int
}

// Dispatcher is the purge plane's one subscriber registry: it registers
// downstream endpoints, delivers purges to them and evicts the ones that
// keep failing. It has two delivery disciplines. A new dispatcher relays
// immediately: every purge reaches every subscriber (one shard), each
// delivery a single-Msg POST in its own background task, so publication
// latency does not grow with fleet size and one dead subscriber does not
// stall the rest. Start switches it to sharded, batched delivery:
// per-subscriber bounded queues drained by a fixed worker pool once per
// FlushInterval, queued purges coalesced into MsgBatch wire messages for
// batch-capable endpoints (one single-Msg POST per purge for legacy
// ones), and a consistent-hash shard map confining each purge to the
// subscribers whose declared domains share its shard. Delivery is
// best-effort either way: a lost purge degrades to TTL expiry.
type Dispatcher struct {
	client *httplite.Client

	mu     sync.Mutex
	cfg    DispatchConfig // zero until Start
	shards *ShardMap
	subs   map[string]*dispatchSub // keyed by Addr.String()
	order  []*dispatchSub          // registration order: deterministic delivery order
	nextW  int

	// tasks owns the relay tasks and the worker pool; Stop waits for them.
	tasks *vclock.Group

	batches   atomic.Int64
	delivered atomic.Int64
	dropped   atomic.Int64
	evicted   atomic.Int64
}

// NewDispatcher builds an immediate-relay dispatcher; it starts no
// workers until Start.
func NewDispatcher(env vclock.Env, client *httplite.Client) *Dispatcher {
	return &Dispatcher{
		client: client,
		shards: NewShardMap(1),
		subs:   make(map[string]*dispatchSub),
		tasks:  vclock.NewGroup(env),
	}
}

// Start switches the dispatcher to sharded, batched delivery: it fills
// in cfg's defaults, rebuilds the shard map (re-deriving the shard sets
// of subscribers registered so far) and starts the worker pool. Call it
// once, before serving traffic.
func (d *Dispatcher) Start(cfg DispatchConfig) {
	d.mu.Lock()
	d.cfg = cfg.withDefaults()
	d.shards = NewShardMap(d.cfg.Shards)
	for _, s := range d.order {
		s.shards = d.shardSet(s.sub.Domains)
	}
	cfg = d.cfg
	d.mu.Unlock()
	for w := 0; w < DefaultWorkers; w++ {
		d.tasks.Every("coherence.dispatch", cfg.FlushInterval, func() { d.drain(w, cfg.MaxBatch) })
	}
}

// Sharded reports whether Start has switched the dispatcher to queued,
// sharded delivery.
func (d *Dispatcher) Sharded() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cfg.Shards > 0
}

// Config returns the effective (default-filled) config Start ran with,
// zero before Start.
func (d *Dispatcher) Config() DispatchConfig {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cfg
}

// Stop halts the worker pool and waits for it and for every relay task
// in flight. A stopped dispatcher starts no more relay tasks.
func (d *Dispatcher) Stop() { d.tasks.Stop() }

// shardSet maps declared domains to their shards; nil (every shard) for
// no declared interest. Callers hold d.mu.
func (d *Dispatcher) shardSet(domains []string) map[int]struct{} {
	if len(domains) == 0 {
		return nil
	}
	shards := make(map[int]struct{}, len(domains))
	for _, dom := range domains {
		shards[d.shards.Shard(dom)] = struct{}{}
	}
	return shards
}

// Register adds (or, per the bus contract, idempotently replaces) a
// subscriber. Round-robin worker assignment keeps the pool balanced.
func (d *Dispatcher) Register(sub Subscription) {
	key := sub.Addr.String()
	d.mu.Lock()
	defer d.mu.Unlock()
	shards := d.shardSet(sub.Domains)
	if s, ok := d.subs[key]; ok {
		// A restarted daemon re-subscribes, possibly with a new path or
		// interest set: replace in place, forgive past failures, keep the
		// queue (those purges are still owed to the endpoint).
		s.mu.Lock()
		s.sub = sub
		s.shards = shards
		s.failures = 0
		s.mu.Unlock()
		return
	}
	s := &dispatchSub{key: key, sub: sub, shards: shards, worker: d.nextW}
	d.nextW = (d.nextW + 1) % DefaultWorkers
	d.subs[key] = s
	d.order = append(d.order, s)
}

// Subscribers snapshots the registered subscriptions in registration
// order.
func (d *Dispatcher) Subscribers() []Subscription {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Subscription, 0, len(d.order))
	for _, s := range d.order {
		out = append(out, s.sub)
	}
	return out
}

// Publish routes one purge by its URL's domain shard and delivers it to
// every subscriber attached to that shard (plus subscribers with no
// declared interest, which receive everything). Returns the number of
// subscribers reached.
func (d *Dispatcher) Publish(msg Msg) int {
	d.mu.Lock()
	shard := d.shards.ShardURL(msg.URL)
	targets := make([]*dispatchSub, 0, len(d.order))
	for _, s := range d.order {
		if _, in := s.shards[shard]; in || s.shards == nil {
			targets = append(targets, s)
		}
	}
	d.mu.Unlock()
	d.deliver(targets, msg)
	return len(targets)
}

// Send delivers one purge to the subscriber registered at addrKey
// (Addr.String()), bypassing shard routing — the hierarchical relay uses
// it for location-targeted delivery. Returns false for unknown keys.
func (d *Dispatcher) Send(addrKey string, msg Msg) bool {
	d.mu.Lock()
	s, ok := d.subs[addrKey]
	d.mu.Unlock()
	if ok {
		d.deliver([]*dispatchSub{s}, msg)
	}
	return ok
}

// deliver is the one delivery step: before Start each target gets its
// own relay task posting the single-Msg body, after Start the purge
// waits in the target's queue for the next flush tick.
func (d *Dispatcher) deliver(targets []*dispatchSub, msg Msg) {
	if !d.Sharded() {
		body, _ := json.Marshal(msg)
		for _, s := range targets {
			s.mu.Lock()
			sub := s.sub
			s.mu.Unlock()
			d.tasks.Go("coherence.relay", func() { d.post(s, sub, body, 1) })
		}
		return
	}
	for _, s := range targets {
		d.enqueue(s, msg)
	}
}

func (d *Dispatcher) enqueue(s *dispatchSub, msg Msg) {
	s.mu.Lock()
	if len(s.pending) >= DefaultQueueLen {
		s.mu.Unlock()
		d.dropped.Add(1)
		return
	}
	s.pending = append(s.pending, msg)
	s.mu.Unlock()
}

// Stats snapshots the dispatcher counters and queue depth.
func (d *Dispatcher) Stats() DispatchStats {
	d.mu.Lock()
	subs := append([]*dispatchSub(nil), d.order...)
	shards := d.cfg.Shards
	d.mu.Unlock()
	st := DispatchStats{
		Subscribers: len(subs),
		Shards:      shards,
		Workers:     DefaultWorkers,
		Batches:     d.batches.Load(),
		Delivered:   d.delivered.Load(),
		Dropped:     d.dropped.Load(),
		Evicted:     d.evicted.Load(),
	}
	for _, s := range subs {
		s.mu.Lock()
		st.Queued += len(s.pending)
		s.mu.Unlock()
	}
	return st
}

// drain is one worker's tick: flush every queue pinned to worker w.
func (d *Dispatcher) drain(w, maxBatch int) {
	d.mu.Lock()
	mine := make([]*dispatchSub, 0, len(d.order))
	for _, s := range d.order {
		if s.worker == w {
			mine = append(mine, s)
		}
	}
	d.mu.Unlock()
	for _, s := range mine {
		d.flush(s, maxBatch)
	}
}

// flush drains one subscriber's queue: batch-capable endpoints get the
// whole queue as MsgBatch POSTs of up to MaxBatch messages, legacy
// endpoints one single-Msg POST per purge. An eviction drops the rest.
func (d *Dispatcher) flush(s *dispatchSub, maxBatch int) {
	s.mu.Lock()
	pending := s.pending
	s.pending = nil
	sub := s.sub
	s.mu.Unlock()
	step := 1
	if sub.Batch && maxBatch > 1 {
		step = maxBatch
	}
	for off := 0; off < len(pending); off += step {
		end := min(off+step, len(pending))
		chunk := pending[off:end]
		var body []byte
		if sub.Batch {
			body = EncodeBatch(chunk)
		} else {
			body, _ = json.Marshal(chunk[0])
		}
		if !d.post(s, sub, body, len(chunk)) {
			d.dropped.Add(int64(len(pending) - end))
			return
		}
	}
}

// post sends one wire body carrying n purges to sub, counts it, and
// tracks consecutive failures: once they reach DefaultMaxFailures the
// registration is evicted and post returns false.
func (d *Dispatcher) post(s *dispatchSub, sub Subscription, body []byte, n int) bool {
	req := httplite.NewRequest("POST", sub.Addr.Host, sub.Path)
	req.Body = body
	resp, err := d.client.Do(sub.Addr, req)
	d.batches.Add(1)
	ok := err == nil && resp.Status == 200
	if ok {
		d.delivered.Add(int64(n))
	}
	s.mu.Lock()
	if ok {
		s.failures = 0
	} else {
		s.failures++
	}
	dead := s.failures >= DefaultMaxFailures
	s.mu.Unlock()
	if dead {
		d.evict(s)
	}
	return !dead
}

// evict removes a dead subscriber; its queued purges are dropped (they
// degrade to TTL expiry) and a restarted daemon re-registers itself.
func (d *Dispatcher) evict(s *dispatchSub) {
	d.mu.Lock()
	if cur, ok := d.subs[s.key]; ok && cur == s {
		delete(d.subs, s.key)
		for i, o := range d.order {
			if o == s {
				d.order = append(d.order[:i], d.order[i+1:]...)
				break
			}
		}
		d.evicted.Add(1)
	}
	d.mu.Unlock()
	s.mu.Lock()
	d.dropped.Add(int64(len(s.pending)))
	s.pending = nil
	s.mu.Unlock()
}
