package coherence

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"

	"apecache/internal/httplite"
	"apecache/internal/vclock"
)

// DispatchConfig tunes the sharded, batched fan-out dispatcher.
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
	// which a subscriber is evicted, by the dispatcher and by the hub's
	// legacy fan-out alike (a restarted daemon re-registers through the
	// idempotent subscribe path).
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
	key    string // sub.Addr.String(), fixed for the registration's life
	sub    Subscription
	shards map[int]struct{} // nil: interested in every shard
	worker int

	mu       sync.Mutex
	pending  []Msg
	failures int
}

// Dispatcher replaces goroutine-per-delivery fan-out with per-subscriber
// bounded queues drained by a fixed worker pool. Publications enqueue in
// O(subscribers-in-shard); each worker wakes once per FlushInterval and
// flushes its subscribers' queues, coalescing queued purges into MsgBatch
// wire messages for batch-capable endpoints (one single-Msg POST per
// purge for legacy ones). Subscribers register domain interest; the
// consistent-hash shard map confines each purge to the subscribers whose
// domains share its shard.
type Dispatcher struct {
	env    vclock.Env
	client *httplite.Client
	cfg    DispatchConfig
	shards *ShardMap

	mu      sync.Mutex
	subs    map[string]*dispatchSub // keyed by Addr.String()
	order   []*dispatchSub          // registration order: deterministic flush order
	nextW   int
	stopped bool

	batches   atomic.Int64
	delivered atomic.Int64
	dropped   atomic.Int64
	evicted   atomic.Int64
}

// NewDispatcher builds a dispatcher and starts its worker pool. Call
// from a sim task under the virtual clock (workers run on env.Go).
func NewDispatcher(env vclock.Env, client *httplite.Client, cfg DispatchConfig) *Dispatcher {
	d := &Dispatcher{
		env:    env,
		client: client,
		cfg:    cfg.withDefaults(),
		subs:   make(map[string]*dispatchSub),
	}
	d.shards = NewShardMap(d.cfg.Shards)
	for w := 0; w < DefaultWorkers; w++ {
		w := w
		env.Go("coherence.dispatch", func() { d.runWorker(w) })
	}
	return d
}

// Config returns the dispatcher's effective (default-filled) config.
func (d *Dispatcher) Config() DispatchConfig { return d.cfg }

// Stop halts the worker pool after the current tick.
func (d *Dispatcher) Stop() {
	d.mu.Lock()
	d.stopped = true
	d.mu.Unlock()
}

// Register adds (or, per the bus contract, idempotently replaces) a
// subscriber. Round-robin worker assignment keeps the pool balanced.
func (d *Dispatcher) Register(sub Subscription) {
	var shards map[int]struct{}
	if len(sub.Domains) > 0 {
		shards = make(map[int]struct{}, len(sub.Domains))
		for _, dom := range sub.Domains {
			shards[d.shards.Shard(dom)] = struct{}{}
		}
	}
	key := sub.Addr.String()
	d.mu.Lock()
	defer d.mu.Unlock()
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

// Publish routes one purge by its URL's domain shard and enqueues it for
// every subscriber attached to that shard (plus subscribers with no
// declared interest, which receive everything). Returns the number of
// queues reached.
func (d *Dispatcher) Publish(msg Msg) int {
	shard := d.shards.ShardURL(msg.URL)
	d.mu.Lock()
	targets := make([]*dispatchSub, 0, len(d.order))
	for _, s := range d.order {
		if s.shards == nil {
			targets = append(targets, s)
			continue
		}
		if _, ok := s.shards[shard]; ok {
			targets = append(targets, s)
		}
	}
	d.mu.Unlock()
	for _, s := range targets {
		d.enqueue(s, msg)
	}
	return len(targets)
}

// Send enqueues one purge for the subscriber registered at addrKey
// (Addr.String()), bypassing shard routing — the hierarchical relay uses
// it for location-targeted delivery. Returns false for unknown keys.
func (d *Dispatcher) Send(addrKey string, msg Msg) bool {
	d.mu.Lock()
	s, ok := d.subs[addrKey]
	d.mu.Unlock()
	if !ok {
		return false
	}
	d.enqueue(s, msg)
	return true
}

// Broadcast enqueues one purge for every subscriber regardless of shard
// interest. Returns the number of queues reached.
func (d *Dispatcher) Broadcast(msg Msg) int {
	d.mu.Lock()
	targets := append([]*dispatchSub(nil), d.order...)
	d.mu.Unlock()
	for _, s := range targets {
		d.enqueue(s, msg)
	}
	return len(targets)
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
	d.mu.Unlock()
	st := DispatchStats{
		Subscribers: len(subs),
		Shards:      d.cfg.Shards,
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

func (d *Dispatcher) isStopped() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stopped
}

// runWorker is one drain loop: wake per tick, flush every queue pinned
// to this worker. It exits when the dispatcher stops or when Sleep stops
// consuming time (the simulation shut down).
func (d *Dispatcher) runWorker(w int) {
	interval := d.cfg.FlushInterval
	for {
		before := d.env.Now()
		d.env.Sleep(interval)
		if d.isStopped() || d.env.Now().Sub(before) < interval {
			return
		}
		d.mu.Lock()
		mine := make([]*dispatchSub, 0, len(d.order))
		for _, s := range d.order {
			if s.worker == w {
				mine = append(mine, s)
			}
		}
		d.mu.Unlock()
		for _, s := range mine {
			d.flush(s)
		}
	}
}

// flush drains one subscriber's queue: batch-capable endpoints get the
// whole queue as MsgBatch POSTs of up to MaxBatch messages, legacy
// endpoints one single-Msg POST per purge. Consecutive failed POSTs
// evict the registration once they reach DefaultMaxFailures.
func (d *Dispatcher) flush(s *dispatchSub) {
	s.mu.Lock()
	pending := s.pending
	s.pending = nil
	sub := s.sub
	s.mu.Unlock()
	if len(pending) == 0 {
		return
	}
	step := 1
	if sub.Batch && d.cfg.MaxBatch > 1 {
		step = d.cfg.MaxBatch
	}
	for off := 0; off < len(pending); off += step {
		end := off + step
		if end > len(pending) {
			end = len(pending)
		}
		chunk := pending[off:end]
		var body []byte
		if sub.Batch {
			body = EncodeBatch(chunk)
		} else {
			body, _ = json.Marshal(chunk[0])
		}
		req := httplite.NewRequest("POST", sub.Addr.Host, sub.Path)
		req.Body = body
		resp, err := d.client.Do(sub.Addr, req)
		d.batches.Add(1)
		if err == nil && resp.Status == 200 {
			d.delivered.Add(int64(len(chunk)))
			s.mu.Lock()
			s.failures = 0
			s.mu.Unlock()
			continue
		}
		s.mu.Lock()
		s.failures++
		failures := s.failures
		s.mu.Unlock()
		if failures >= DefaultMaxFailures {
			d.evict(s)
			d.dropped.Add(int64(len(pending) - end))
			return
		}
	}
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
