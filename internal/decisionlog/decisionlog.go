// Package decisionlog is the per-AP cache decision ledger: a bounded,
// allocation-conscious ring of every cache lifecycle decision the AP
// made — admissions and rejections with the four PACM utility components
// (R(A_d)·e_d·l_d·p_d) and density at decision time, eviction victim
// selection (capacity vs Gini-fairness), TTL expiry, coherence purges,
// stale-while-revalidate serves and revalidations, and peer-mesh fills
// and failures.
//
// On top of the event ring the ledger implements miss-cause attribution:
// every cache miss is classified into an exhaustive taxonomy (cold /
// never-admitted / evicted-by-pacm / gini-rejected / expired / purged /
// peer-failed) by inspecting the last recorded decision for the URL. The
// per-cause counters sum exactly to the number of Classify calls, so
// when the store classifies at precisely its miss sites the accounting
// identity Σ cause counts == total store misses holds by construction —
// the test harness and the `explain` experiment prove it.
//
// The ledger is bounded on every axis: the event ring overwrites oldest
// first, and the per-URL history index keeps a fixed number of sequence
// numbers per URL and is pruned as its events are overwritten (so it
// never indexes more than the ring's distinct URLs).
package decisionlog

import (
	"sync"
	"sync/atomic"
	"time"

	"apecache/internal/dnswire"
)

// Op names one cache lifecycle decision kind.
type Op string

// The recorded decision kinds.
const (
	// OpAdmit is a first-time admission into the cache.
	OpAdmit Op = "admit"
	// OpUpdate is a refresh of an already-resident object.
	OpUpdate Op = "update"
	// OpRejectBlocked is a Put refused because the object exceeded the
	// block-list threshold (never admitted).
	OpRejectBlocked Op = "reject-blocked"
	// OpRejectStale is a Put dropped below the coherence purge
	// high-water mark (the fetched bytes were already invalidated).
	OpRejectStale Op = "reject-stale"
	// OpEvictCapacity is a PACM/LRU capacity eviction.
	OpEvictCapacity Op = "evict-capacity"
	// OpEvictGini is an eviction forced by the Gini fairness constraint
	// (the entry was dropped by the fairness repair loop, not because
	// the incoming object needed its bytes).
	OpEvictGini Op = "evict-gini"
	// OpExpire is a TTL expiry eviction.
	OpExpire Op = "expire"
	// OpPurge is a coherence purge touching the URL (the copy was
	// evicted, marked stale for SWR, or never resident at all).
	OpPurge Op = "purge"
	// OpStaleServe is the one allowed stale-while-revalidate serve of a
	// purged copy.
	OpStaleServe Op = "stale-serve"
	// OpRevalidate is a 304 revalidation re-leasing the resident copy.
	OpRevalidate Op = "revalidate"
	// OpPeerFill is a successful cooperative-mesh fill from a peer AP.
	OpPeerFill Op = "peer-fill"
	// OpPeerFail is a peer-tier miss: every tried candidate failed and
	// the delegation fell back to the edge.
	OpPeerFail Op = "peer-fail"
)

// Event is one recorded decision. For decisions where the object (or
// its resident entry) was in hand, the four PACM utility components and
// the derived utility/density are captured at decision time — this is
// what lets `apectl explain` show the pre-purge utility standing of an
// object that is no longer resident.
type Event struct {
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"t"`
	Op   Op        `json:"op"`
	URL  string    `json:"url"`
	App  string    `json:"app,omitempty"`
	Size int64     `json:"size,omitempty"`
	// Version is the coherence version the decision saw (payload version
	// for fills, announced version for purges).
	Version int64 `json:"version,omitempty"`
	// Gone marks a purge that deleted the object at the origin.
	Gone bool `json:"gone,omitempty"`

	// PACM utility standing at decision time: U = R(A_d)·e_d·l_d·p_d.
	Rate      float64 `json:"rate,omitempty"`       // R(A_d), requests per window
	RemainMin float64 `json:"remain_min,omitempty"` // e_d, minutes of TTL left
	LatencyMS float64 `json:"latency_ms,omitempty"` // l_d, edge fetch latency
	Priority  int     `json:"priority,omitempty"`   // p_d
	Utility   float64 `json:"utility,omitempty"`
	Density   float64 `json:"density,omitempty"` // utility per byte
	// Expiry is the absolute TTL deadline for fill decisions; the miss
	// classifier uses it to attribute a lapsed-but-unswept entry to
	// "expired" without a second clock source.
	Expiry time.Time `json:"expiry,omitempty"`
}

// Cause is one bucket of the exhaustive miss taxonomy.
type Cause string

// The miss-cause taxonomy. Every classified miss lands in exactly one.
const (
	// CauseCold: the ledger has never seen a decision for the URL — the
	// object was simply never fetched through this AP (or the decision
	// aged out of the ring).
	CauseCold Cause = "cold"
	// CauseNeverAdmitted: the last decision refused the object (block
	// list or stale-version drop) — it was fetched but never cached.
	CauseNeverAdmitted Cause = "never-admitted"
	// CauseEvicted: PACM (or LRU) evicted it to make room.
	CauseEvicted Cause = "evicted-by-pacm"
	// CauseGini: the fairness repair loop dropped it to keep the Gini
	// coefficient of per-app storage efficiency under θ.
	CauseGini Cause = "gini-rejected"
	// CauseExpired: the TTL ran out (swept, or lapsed in place).
	CauseExpired Cause = "expired"
	// CausePurged: a coherence purge invalidated it (including the
	// post-purge state after the one allowed stale serve).
	CausePurged Cause = "purged"
	// CausePeerFailed: the last decision was a failed peer-mesh fetch
	// whose edge fallback never produced a cacheable fill.
	CausePeerFailed Cause = "peer-failed"
)

// Causes lists the taxonomy in canonical (display and wire) order.
var Causes = []Cause{
	CauseCold, CauseNeverAdmitted, CauseEvicted, CauseGini,
	CauseExpired, CausePurged, CausePeerFailed,
}

// NumCauses is the taxonomy size.
const NumCauses = 7

func causeIndex(c Cause) int {
	switch c {
	case CauseCold:
		return 0
	case CauseNeverAdmitted:
		return 1
	case CauseEvicted:
		return 2
	case CauseGini:
		return 3
	case CauseExpired:
		return 4
	case CausePurged:
		return 5
	default:
		return 6
	}
}

// DefaultCapacity is the event-ring size when the configured capacity
// is zero: large enough to cover several minutes of decisions on a busy
// AP, small enough (~a few hundred KB) for AP-class hardware.
const DefaultCapacity = 4096

// urlHistCap bounds how many event seqs the per-URL index retains; the
// full ring remains the source of truth, this is the fast path for
// Explain and classification.
const urlHistCap = 8

// urlHist is the bounded per-URL event index: the seqs of the URL's
// most recent decisions, oldest first.
type urlHist struct {
	seqs []uint64
}

// Ledger is the bounded decision ledger. All methods are safe for
// concurrent use; the write path takes one mutex and performs no
// allocation once a URL has been seen. Classification and probing only
// read under the lock, so concurrent store readers (Get holds the
// store's read lock) classify without serializing.
type Ledger struct {
	mu     sync.RWMutex
	events []Event             // ring; slot for seq s is (s-1) % cap
	seq    uint64              // last assigned seq (0 = empty)
	byURL  map[uint64]*urlHist // keyed by dnswire.HashURL

	counts [NumCauses]atomic.Uint64
	total  atomic.Uint64
}

// New builds a ledger with the given ring capacity (DefaultCapacity
// when cap <= 0).
func New(capacity int) *Ledger {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Ledger{
		events: make([]Event, capacity),
		byURL:  make(map[uint64]*urlHist),
	}
}

// Cap returns the ring capacity.
func (l *Ledger) Cap() int { return len(l.events) }

// Len returns the number of live events in the ring.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seq < uint64(len(l.events)) {
		return int(l.seq)
	}
	return len(l.events)
}

// URLsIndexed returns the number of distinct URL hashes currently in
// the history index (bounded by the ring's distinct URLs; tests assert
// the bound).
func (l *Ledger) URLsIndexed() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.byURL)
}

// Record appends one decision, stamping its sequence number. The
// event's URL must already be in basic form.
func (l *Ledger) Record(ev Event) {
	h := dnswire.HashURL(ev.URL)
	l.mu.Lock()
	l.seq++
	ev.Seq = l.seq
	slot := int((l.seq - 1) % uint64(len(l.events)))
	if old := &l.events[slot]; old.Seq != 0 {
		// Overwriting the ring's oldest event: prune its seq from the
		// URL index so the index stays bounded by the ring's contents.
		l.pruneURL(dnswire.HashURL(old.URL), old.Seq)
	}
	l.events[slot] = ev
	hist := l.byURL[h]
	if hist == nil {
		hist = &urlHist{seqs: make([]uint64, 0, urlHistCap)}
		l.byURL[h] = hist
	}
	if len(hist.seqs) == urlHistCap {
		copy(hist.seqs, hist.seqs[1:])
		hist.seqs = hist.seqs[:urlHistCap-1]
	}
	hist.seqs = append(hist.seqs, ev.Seq)
	l.mu.Unlock()
}

// pruneURL drops seq from the URL's history, deleting the index entry
// when it empties. Callers hold the mutex.
func (l *Ledger) pruneURL(h uint64, seq uint64) {
	hist := l.byURL[h]
	if hist == nil {
		return
	}
	for i, s := range hist.seqs {
		if s == seq {
			hist.seqs = append(hist.seqs[:i], hist.seqs[i+1:]...)
			break
		}
	}
	if len(hist.seqs) == 0 {
		delete(l.byURL, h)
	}
}

// eventAt returns the live event for seq, or nil if overwritten.
// Callers hold the mutex.
func (l *Ledger) eventAt(seq uint64) *Event {
	if seq == 0 || seq > l.seq {
		return nil
	}
	ev := &l.events[int((seq-1)%uint64(len(l.events)))]
	if ev.Seq != seq {
		return nil
	}
	return ev
}

// lastEvent returns the most recent live event for url, or nil.
// Callers hold the mutex.
func (l *Ledger) lastEvent(url string) *Event {
	hist := l.byURL[dnswire.HashURL(url)]
	if hist == nil {
		return nil
	}
	for i := len(hist.seqs) - 1; i >= 0; i-- {
		ev := l.eventAt(hist.seqs[i])
		if ev != nil && ev.URL == url { // hash-collision guard
			return ev
		}
	}
	return nil
}

// classify maps a URL's last decision to a miss cause at the given
// instant.
func classify(ev *Event, now time.Time) Cause {
	if ev == nil {
		return CauseCold
	}
	switch ev.Op {
	case OpRejectBlocked, OpRejectStale:
		return CauseNeverAdmitted
	case OpEvictCapacity:
		return CauseEvicted
	case OpEvictGini:
		return CauseGini
	case OpExpire:
		return CauseExpired
	case OpPurge, OpStaleServe:
		return CausePurged
	case OpPeerFail:
		return CausePeerFailed
	default:
		// A fill decision (admit/update/revalidate/peer-fill) whose TTL
		// deadline has passed but whose sweep has not yet run: the miss
		// is an expiry. A fill still inside its TTL cannot miss through
		// Get, so the residual default is the cold bucket.
		if !ev.Expiry.IsZero() && !now.Before(ev.Expiry) {
			return CauseExpired
		}
		return CauseCold
	}
}

// Classify attributes one cache miss for url at now, incrementing the
// cause's counter and the total. The store calls this at exactly its
// miss sites, which is what makes Σ counts == total misses exact.
func (l *Ledger) Classify(url string, now time.Time) Cause {
	l.mu.RLock()
	ev := l.lastEvent(url)
	c := classify(ev, now)
	l.mu.RUnlock()
	l.counts[causeIndex(c)].Add(1)
	l.total.Add(1)
	return c
}

// Probe returns the cause a miss on url would be attributed to right
// now, without touching the counters (the /explain endpoint uses it, so
// explaining a URL never perturbs the attribution identity).
func (l *Ledger) Probe(url string, now time.Time) Cause {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return classify(l.lastEvent(url), now)
}

// Explain returns the retained decision history for url, oldest first.
func (l *Ledger) Explain(url string) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	hist := l.byURL[dnswire.HashURL(url)]
	if hist == nil {
		return nil
	}
	out := make([]Event, 0, len(hist.seqs))
	for _, s := range hist.seqs {
		if ev := l.eventAt(s); ev != nil && ev.URL == url {
			out = append(out, *ev)
		}
	}
	return out
}

// CauseCount returns one cause's miss count.
func (l *Ledger) CauseCount(c Cause) uint64 {
	return l.counts[causeIndex(c)].Load()
}

// Counts returns every cause's miss count (all causes present, zero or
// not) keyed by the cause name.
func (l *Ledger) Counts() map[string]uint64 {
	out := make(map[string]uint64, NumCauses)
	for _, c := range Causes {
		out[string(c)] = l.CauseCount(c)
	}
	return out
}

// TotalMisses returns the number of classified misses; by construction
// it equals the sum over Counts.
func (l *Ledger) TotalMisses() uint64 { return l.total.Load() }
