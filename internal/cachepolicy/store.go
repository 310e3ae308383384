package cachepolicy

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"apecache/internal/decisionlog"
	"apecache/internal/dnswire"
	"apecache/internal/objstore"
	"apecache/internal/telemetry"
	"apecache/internal/vclock"
)

// DefaultMaxObjectSize is the block-list threshold: "if the data size
// exceeds a threshold (set at 500kb in our implementation), it will be
// added to the block list".
const DefaultMaxObjectSize = 500 << 10

// ErrBlocked reports that an object was refused and block-listed.
var ErrBlocked = errors.New("cachepolicy: object block-listed")

// Entry is one object resident in the AP cache, with the bookkeeping PACM
// needs (e_d via Expiry, l_d via FetchLatency) and LRU needs (LastUsed).
//
// Entries are immutable snapshots once published: a refresh installs a new
// Entry rather than rewriting Data in place, so a handler that obtained an
// entry under the read lock can keep serving its payload after releasing
// it. Recency (LastUsed/Hits) is the one exception — Get records it in
// atomic shadows so lookups stay on the read path, and the store folds the
// shadows into the exported fields (syncRecency) before any policy code
// reads them under the write lock.
type Entry struct {
	Object *objstore.Object
	Data   []byte
	// Expiry is insertion time + the object's TTL; e_d is the remaining
	// distance to it.
	Expiry time.Time
	// FetchLatency is the measured latency of retrieving the object from
	// the edge/cloud server — the paper's approximation of l_d, the time
	// a client saves per AP hit.
	FetchLatency time.Duration
	LastUsed     time.Time
	Inserted     time.Time
	// Hits counts Get operations served by this entry (GDSF input).
	Hits int
	// Version is the origin version of the cached payload (coherence).
	Version int64
	// Stale marks a purged-but-resident entry: the origin published a
	// newer version, and under stale-while-revalidate the copy stays
	// servable exactly once while a background revalidation runs.
	Stale bool
	// StaleServed records that the one allowed stale serve has happened.
	StaleServed bool

	// appID is the store's number for Object.App (0 for entries built
	// outside a store), letting a PACM pass find an entry's app without
	// comparing names.
	appID uint32
	// seq is the store's insertion sequence, used as a deterministic
	// tie-break wherever entries compare equal (densities, fallback
	// eviction order). Zero for entries built outside a store.
	seq uint64
	// lastUsed/hits are the atomic recency shadows written by Get under
	// the read lock; syncRecency folds them into LastUsed/Hits.
	lastUsed atomic.Pointer[time.Time]
	hits     atomic.Int64
}

// Size returns the entry's payload size in bytes.
func (e *Entry) Size() int64 { return int64(len(e.Data)) }

// Fresh reports whether the entry is still within TTL at the given time.
func (e *Entry) Fresh(now time.Time) bool { return now.Before(e.Expiry) }

// touch records a lookup at now without requiring the write lock (or a
// second map lookup): the caller already holds the entry.
func (e *Entry) touch(now time.Time) {
	t := now
	e.lastUsed.Store(&t)
	e.hits.Add(1)
}

// syncRecency folds the atomic recency shadows into the exported fields.
// Callers hold the store's write lock, so no Get can run concurrently.
func (e *Entry) syncRecency() {
	if n := e.hits.Swap(0); n != 0 {
		e.Hits += int(n)
	}
	if p := e.lastUsed.Load(); p != nil && p.After(e.LastUsed) {
		e.LastUsed = *p
	}
}

// Seq returns the store insertion sequence (0 outside a store).
func (e *Entry) Seq() uint64 { return e.seq }

// Policy selects eviction victims when the cache must make room.
type Policy interface {
	// Name identifies the policy in logs and experiment tables.
	Name() string
	// SelectVictims returns the entries to evict so that incoming (whose
	// Data is already set) fits within capacity. The store guarantees
	// need > 0 and that incoming fits in an empty cache. freq carries
	// the per-app request frequencies.
	SelectVictims(now time.Time, entries []*Entry, incoming *Entry, capacity int64, freq *FreqTracker) []*Entry
}

// StoreStats counts cache-management outcomes.
type StoreStats struct {
	Insertions int
	Updates    int
	Evictions  int
	Expired    int
	Blocked    int
	// Purged counts coherence purges that touched a resident entry.
	Purged int
	// StaleServes counts GetStale serves of purged entries (SWR).
	StaleServes int
	// StaleDrops counts Put/insert attempts rejected because the payload
	// version was older than the purge high-water mark.
	StaleDrops int
}

// Store is the AP cache: a capacity-bounded object store with TTL expiry,
// a block list for oversized objects, and a pluggable eviction policy.
//
// The hot lookup path — Flag, FlagByHash, KnownHashesForDomain,
// AppendDomainFlags, Get — runs under a read lock so concurrent DNS and
// HTTP handlers never serialize against each other; only mutations (Put,
// eviction, the sweeper, coherence purges) take the write side. Domain
// queries are answered from an incrementally-maintained per-domain index
// instead of scanning every hash the AP has ever seen, and TTL expiry is
// tracked in a min-heap so admissions no longer scan all entries.
type Store struct {
	mu            sync.RWMutex
	clock         vclock.Clock
	capacity      int64
	maxObjectSize int64
	policy        Policy
	freq          *FreqTracker
	entries       map[string]*Entry // keyed by basic URL
	byHash        map[uint64]string // DNS-Cache hash -> URL
	used          int64
	blocklist     map[string]struct{}
	// The management counters, one per outcome, written under the write
	// lock: Stats reads them and Instrument attaches them to a registry.
	insertions, updates, evictions, expired, blocked telemetry.Counter
	staleServes, staleDrops                          telemetry.Counter
	// purges counts coherence purges that touched a resident entry.
	purges int
	// purged is the coherence high-water mark: the newest version the
	// origin has announced per URL. Puts of older payloads are dropped so
	// an in-flight delegation cannot resurrect purged bytes.
	purged map[string]int64
	// negative holds purged-and-gone URLs with the time their negative-
	// cache window ends; within the window the flag is Cache-Miss and
	// delegation answers 410 without contacting the edge.
	negative    map[string]time.Time
	negativeTTL time.Duration
	// seq numbers insertions for deterministic tie-breaks.
	seq uint64
	// expiries is the store-wide lazy min-heap over resident entries'
	// expiries (stale entries included — they expire too).
	expiries expiryHeap
	// domains is the per-domain lookup index (see index.go).
	domains map[string]*domainIndex
	// tel is the optional telemetry hookup (see telemetry.go); nil keeps
	// every hook a no-op.
	tel *storeTel
	// ledger is the optional decision ledger (see ledger.go); nil keeps
	// the miss path classification-free and every record a no-op.
	ledger *decisionlog.Ledger
	// appIDs numbers every app ever admitted, from 1 (Entry.appID).
	appIDs map[string]uint32
	// resident is makeRoom's snapshot of the resident entries, reused
	// across admissions under the write lock and cleared after each.
	resident []*Entry
}

// NewStore builds a cache with the given capacity and policy. A zero
// maxObjectSize applies DefaultMaxObjectSize.
func NewStore(clock vclock.Clock, capacity int64, maxObjectSize int64, policy Policy, freq *FreqTracker) *Store {
	if maxObjectSize <= 0 {
		maxObjectSize = DefaultMaxObjectSize
	}
	if freq == nil {
		freq = NewFreqTracker(clock, DefaultAlpha, DefaultFreqWindow)
	}
	return &Store{
		clock:         clock,
		capacity:      capacity,
		maxObjectSize: maxObjectSize,
		policy:        policy,
		freq:          freq,
		entries:       make(map[string]*Entry),
		byHash:        make(map[uint64]string),
		blocklist:     make(map[string]struct{}),
		purged:        make(map[string]int64),
		negative:      make(map[string]time.Time),
		negativeTTL:   DefaultNegativeTTL,
		domains:       make(map[string]*domainIndex),
		appIDs:        make(map[string]uint32),
	}
}

// Freq exposes the frequency tracker (the AP runtime records every client
// request on it, cache hit or not).
func (s *Store) Freq() *FreqTracker { return s.freq }

// Policy exposes the eviction policy (ablation benchmarks tweak its
// parameters in place).
func (s *Store) Policy() Policy { return s.policy }

// Stats returns a copy of the management counters.
func (s *Store) Stats() StoreStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return StoreStats{
		Insertions:  int(s.insertions.Value()),
		Updates:     int(s.updates.Value()),
		Evictions:   int(s.evictions.Value()),
		Expired:     int(s.expired.Value()),
		Blocked:     int(s.blocked.Value()),
		Purged:      s.purges,
		StaleServes: int(s.staleServes.Value()),
		StaleDrops:  int(s.staleDrops.Value()),
	}
}

// Used returns the bytes currently stored.
func (s *Store) Used() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.used
}

// Capacity returns the configured capacity in bytes.
func (s *Store) Capacity() int64 { return s.capacity }

// Len returns the number of resident entries.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// Flag returns the DNS-Cache status for a basic URL, implementing the
// three-way classification of §IV-B.
func (s *Store) Flag(url string) dnswire.CacheFlag {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.flagAt(url, s.entries[url], s.clock.Now())
}

// flagAt classifies url as of now, given its resident entry e (nil when
// there is none). Callers hold at least the read lock.
func (s *Store) flagAt(url string, e *Entry, now time.Time) dnswire.CacheFlag {
	if _, blocked := s.blocklist[url]; blocked {
		return dnswire.FlagCacheMiss
	}
	if until, ok := s.negative[url]; ok && now.Before(until) {
		// Purged-and-gone: refetching would only 410 at the origin, so
		// steer the client away from both AP and delegation.
		return dnswire.FlagCacheMiss
	}
	if e != nil && e.Fresh(now) {
		if e.Stale {
			if e.StaleServed {
				// The one allowed stale serve is spent; the client must
				// wait out the revalidation via delegation.
				return dnswire.FlagDelegation
			}
			return dnswire.FlagStale
		}
		return dnswire.FlagCacheHit
	}
	return dnswire.FlagDelegation
}

// flagByHashAt resolves a hashed URL as of now. Unknown hashes are
// Delegation (the AP has never seen the URL; it will learn it when the
// client delegates). Callers hold at least the read lock.
func (s *Store) flagByHashAt(h uint64, now time.Time) dnswire.CacheFlag {
	if url, ok := s.byHash[h]; ok {
		return s.flagAt(url, s.entries[url], now)
	}
	return dnswire.FlagDelegation
}

// FlagByHash resolves a hashed URL from a DNS-Cache request.
func (s *Store) FlagByHash(h uint64) dnswire.CacheFlag {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.flagByHashAt(h, s.clock.Now())
}

// AppendDomainFlags appends the flag batch of one DNS-Cache response to
// dst: ⟨hash, flag⟩ for every URL the store has ever seen under the domain
// — the batching behaviour of §IV-B ("respond with the cache status for
// all URLs under the same domain") — then for every requested hash the
// domain index does not cover, each hash once. It also reports whether any
// appended flag is Cache-Miss (the dummy-IP decision). The whole batch is
// one consistent snapshot: a single read lock, the clock read once. Cost is
// proportional to the batch, not to the number of hashes the AP has seen.
func (s *Store) AppendDomainFlags(dst []dnswire.CacheEntry, domain string, requested []dnswire.CacheEntry) (batch []dnswire.CacheEntry, anyMiss bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	now := s.clock.Now()
	di := s.domains[dnswire.CanonicalName(domain)]
	if di == nil {
		di = &domainIndex{} // nothing seen under the domain yet
	}
	dst = slices.Grow(dst, len(di.urls)+len(requested))
	for i := range di.urls {
		k := &di.urls[i]
		f := s.flagAt(k.url, k.entry, now)
		dst = append(dst, dnswire.CacheEntry{Hash: k.hash, Flag: f})
		anyMiss = anyMiss || f == dnswire.FlagCacheMiss
	}
	extra := len(dst)
	for _, e := range requested {
		if _, covered := di.known[e.Hash]; covered {
			continue
		}
		f := s.flagByHashAt(e.Hash, now)
		dst = append(dst, dnswire.CacheEntry{Hash: e.Hash, Flag: f})
		anyMiss = anyMiss || f == dnswire.FlagCacheMiss
	}
	if tail := dst[extra:]; len(tail) > 1 {
		// A request may repeat a hash; equal hashes carry equal flags, so
		// sorting the uncovered tail and compacting it keeps each once.
		slices.SortFunc(tail, func(a, b dnswire.CacheEntry) int { return cmp.Compare(a.Hash, b.Hash) })
		dst = dst[:extra+len(slices.Compact(tail))]
	}
	return dst, anyMiss
}

// KnownHashesForDomain returns the ⟨hash, flag⟩ entries for every URL the
// store has ever seen under the domain, nil when it knows none.
func (s *Store) KnownHashesForDomain(domain string) []dnswire.CacheEntry {
	batch, _ := s.AppendDomainFlags(nil, domain, nil)
	return batch
}

// Get returns the entry for url if fresh and not purged, updating recency
// without leaving the read path (the update rides on the entry already in
// hand — no write lock, no second lookup). Purged entries are only
// reachable through GetStale.
func (s *Store) Get(url string) (*Entry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.entries[url]
	if !ok {
		s.tel.lookup(false)
		if s.ledger != nil {
			// Classification sites mirror the miss-counter sites exactly:
			// that is what makes Σ cause counts == total misses an
			// identity rather than an approximation.
			s.ledger.Classify(url, s.clock.Now())
		}
		return nil, false
	}
	now := s.clock.Now()
	if !e.Fresh(now) || e.Stale {
		s.tel.lookup(false)
		if s.ledger != nil {
			s.ledger.Classify(url, now)
		}
		return nil, false
	}
	e.touch(now)
	s.tel.lookup(true)
	return e, true
}

// RecordRequest counts one client request for app a toward R(a).
func (s *Store) RecordRequest(app string) { s.freq.Record(app) }

// Put inserts (or refreshes) an object fetched by delegation. fetchLatency
// is the observed edge/cloud retrieval latency (l_d). Oversized objects
// are block-listed and ErrBlocked returned.
func (s *Store) Put(obj *objstore.Object, data []byte, fetchLatency time.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock.Now()
	size := int64(len(data))
	if size > s.maxObjectSize || size > s.capacity {
		s.blocklist[obj.URL] = struct{}{}
		s.indexKnown(obj.Hash(), obj.URL)
		s.blocked.Inc()
		if s.ledger != nil {
			s.ledger.Record(decisionlog.Event{Time: now, Op: decisionlog.OpRejectBlocked,
				URL: obj.URL, App: obj.App, Size: size, Version: obj.Version, Priority: obj.Priority})
		}
		return fmt.Errorf("%w: %s (%d bytes)", ErrBlocked, obj.URL, size)
	}
	if hw, ok := s.purged[obj.URL]; ok && obj.Version < hw {
		// An in-flight fetch raced a purge: the bytes are already known
		// stale, so caching them would resurrect exactly what the origin
		// invalidated.
		s.staleDrops.Inc()
		if s.ledger != nil {
			s.ledger.Record(decisionlog.Event{Time: now, Op: decisionlog.OpRejectStale,
				URL: obj.URL, App: obj.App, Size: size, Version: obj.Version, Priority: obj.Priority})
		}
		return fmt.Errorf("%w: %s (version %d < purge %d)", ErrStaleVersion, obj.URL, obj.Version, hw)
	}
	// A current-or-newer payload supersedes any negative-cache window (the
	// object was re-created at the origin).
	delete(s.negative, obj.URL)

	if old, ok := s.entries[obj.URL]; ok {
		// Refresh: install a new entry rather than rewriting the old one,
		// so handlers still holding the previous snapshot keep a stable
		// payload. Bookkeeping (Inserted, Hits, seq) carries over.
		old.syncRecency()
		fresh := &Entry{
			Object:       obj,
			Data:         data,
			Expiry:       now.Add(obj.TTL),
			FetchLatency: fetchLatency,
			LastUsed:     now,
			Inserted:     old.Inserted,
			Hits:         old.Hits,
			Version:      obj.Version,
			appID:        s.appID(obj.App),
			seq:          old.seq,
		}
		s.used += size - old.Size()
		s.setResident(obj.URL, fresh)
		s.expiries.push(obj.URL, fresh.Expiry)
		s.updates.Inc()
		if s.ledger != nil {
			s.ledger.Record(s.ledgerEvent(decisionlog.OpUpdate, fresh, now))
		}
		s.makeRoom(nil) // in case the refresh grew the entry
		return nil
	}

	s.seq++
	entry := &Entry{
		Object:       obj,
		Data:         data,
		Expiry:       now.Add(obj.TTL),
		FetchLatency: fetchLatency,
		LastUsed:     now,
		Inserted:     now,
		Version:      obj.Version,
		appID:        s.appID(obj.App),
		seq:          s.seq,
	}
	s.makeRoom(entry)
	s.setResident(obj.URL, entry)
	s.indexKnown(obj.Hash(), obj.URL)
	s.expiries.push(obj.URL, entry.Expiry)
	s.used += size
	s.insertions.Inc()
	if s.ledger != nil {
		s.ledger.Record(s.ledgerEvent(decisionlog.OpAdmit, entry, now))
	}
	return nil
}

// appID returns app's number, assigning the next one on first sight.
// Callers hold the write lock.
func (s *Store) appID(app string) uint32 {
	id, ok := s.appIDs[app]
	if !ok {
		id = uint32(len(s.appIDs) + 1)
		s.appIDs[app] = id
	}
	return id
}

// indexKnown records a hash→URL sighting in both the global map and the
// per-domain index. Callers hold the write lock.
func (s *Store) indexKnown(hash uint64, url string) {
	s.byHash[hash] = url
	domain := dnswire.URLDomain(url)
	di := s.domains[domain]
	if di == nil {
		di = &domainIndex{known: make(map[uint64]int)}
		s.domains[domain] = di
	}
	k := knownURL{hash: hash, url: url, entry: s.entries[url]}
	if i, seen := di.known[hash]; !seen {
		di.known[hash] = len(di.urls)
		di.urls = append(di.urls, k)
	} else if di.urls[i].url != url {
		di.urls[i] = k // hash collision: the newer URL answers, as in byHash
	}
}

// setResident installs url's resident entry (nil removes it) in the store
// and beside the URL's slot in its domain index, where flag batches read it
// without a lookup by URL. Callers hold the write lock.
func (s *Store) setResident(url string, e *Entry) {
	if e != nil {
		s.entries[url] = e
	} else {
		delete(s.entries, url)
	}
	if di := s.domains[dnswire.URLDomain(url)]; di != nil {
		if i, seen := di.known[dnswire.HashURL(url)]; seen && di.urls[i].url == url {
			di.urls[i].entry = e
		}
	}
}

// dropExpiredLocked removes every TTL-expired resident entry, driven by
// the expiry min-heap: cost is O(log n) per actually-expired entry instead
// of a scan over all residents on every admission. Superseded heap items
// (refreshed or already-removed entries) are discarded as they surface.
func (s *Store) dropExpiredLocked(now time.Time) int {
	dropped := 0
	for s.expiries.Len() > 0 {
		top := s.expiries[0]
		e, ok := s.entries[top.url]
		if !ok || !e.Expiry.Equal(top.expiry) {
			popExpiry(&s.expiries)
			continue
		}
		if e.Fresh(now) {
			break // earliest live expiry is in the future: nothing expired
		}
		popExpiry(&s.expiries)
		if s.ledger != nil {
			s.ledger.Record(s.ledgerEvent(decisionlog.OpExpire, e, now))
		}
		s.removeEntry(top.url)
		s.expired.Inc()
		dropped++
	}
	return dropped
}

// makeRoom evicts expired entries, then asks the policy for victims until
// incoming fits. incoming may be nil (capacity repair after a refresh).
func (s *Store) makeRoom(incoming *Entry) {
	now := s.clock.Now()
	s.dropExpiredLocked(now)
	var need int64 = s.used - s.capacity
	if incoming != nil {
		need = s.used + incoming.Size() - s.capacity
	}
	if need <= 0 {
		return
	}
	entries := s.appendEntries(s.resident[:0])
	for _, e := range entries {
		e.syncRecency() // policies read LastUsed/Hits
	}
	// Selection time is measured on the wall clock even under simnet:
	// compute does not advance virtual time, and the point of the metric
	// is the real CPU cost of a PACM pass.
	var selStart time.Time
	if s.tel != nil {
		selStart = time.Now()
	}
	victims := s.policy.SelectVictims(now, entries, incoming, s.capacity, s.freq)
	if s.tel != nil {
		s.tel.selection.ObserveDuration(time.Since(selStart))
	}
	var pacm *PACM
	if s.ledger != nil {
		pacm, _ = s.policy.(*PACM)
	}
	for _, v := range victims {
		if _, ok := s.entries[v.Object.URL]; !ok {
			continue
		}
		if s.ledger != nil {
			// The ledger distinguishes Gini-forced drops from ordinary
			// capacity evictions; the telemetry reason stays "capacity"
			// for both so metric families are unchanged.
			op := decisionlog.OpEvictCapacity
			if pacm != nil && pacm.fairnessVictim(v) {
				op = decisionlog.OpEvictGini
			}
			s.ledger.Record(s.ledgerEvent(op, v, now))
		}
		s.removeEntry(v.Object.URL)
		s.evictions.Inc()
		need -= v.Size()
	}
	clear(entries) // hold no evicted entry until the next admission
	s.resident = entries[:0]
	// The policy is trusted but verified: if it under-evicted, fall back
	// to dropping the least-recently-used entries (deterministic order) so
	// the capacity invariant holds.
	if need > 0 {
		rest := s.appendEntries(nil)
		sort.Slice(rest, func(i, j int) bool {
			a, b := rest[i], rest[j]
			if !a.LastUsed.Equal(b.LastUsed) {
				return a.LastUsed.Before(b.LastUsed)
			}
			if a.seq != b.seq {
				return a.seq < b.seq
			}
			return a.Object.URL < b.Object.URL
		})
		for _, e := range rest {
			if need <= 0 {
				break
			}
			need -= e.Size()
			if s.ledger != nil {
				s.ledger.Record(s.ledgerEvent(decisionlog.OpEvictCapacity, e, now))
			}
			s.removeEntry(e.Object.URL)
			s.evictions.Inc()
		}
	}
}

// removeEntry drops a resident entry but keeps its hash known (the AP has
// "seen" the URL; a later DNS-Cache query gets Delegation, not silence).
// Heap items referencing the entry are invalidated implicitly and cleaned
// lazily. Callers hold the write lock.
func (s *Store) removeEntry(url string) {
	e, ok := s.entries[url]
	if !ok {
		return
	}
	s.used -= e.Size()
	s.setResident(url, nil)
}

// appendEntries appends a snapshot of the resident entries to dst.
func (s *Store) appendEntries(dst []*Entry) []*Entry {
	dst = slices.Grow(dst, len(s.entries))
	for _, e := range s.entries {
		dst = append(dst, e)
	}
	return dst
}

// Entries exposes a snapshot for tests and the experiment harness, with
// recency shadows folded in (hence the write lock).
func (s *Store) Entries() []*Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.appendEntries(nil)
	for _, e := range out {
		e.syncRecency()
	}
	return out
}

// SweepExpired evicts every TTL-expired entry, returning how many were
// dropped. The store also expires lazily on insert; the AP's background
// sweeper calls this so idle caches release memory promptly.
func (s *Store) SweepExpired() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock.Now()
	dropped := s.dropExpiredLocked(now)
	for url, until := range s.negative {
		if !now.Before(until) {
			delete(s.negative, url)
		}
	}
	return dropped
}

// Blocked reports whether a URL is on the block list.
func (s *Store) Blocked(url string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.blocklist[url]
	return ok
}
