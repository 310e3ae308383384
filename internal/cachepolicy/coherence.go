package cachepolicy

import (
	"errors"
	"time"

	"apecache/internal/decisionlog"
	"apecache/internal/dnswire"
)

// DefaultNegativeTTL is the window during which a purged-and-gone URL is
// answered Cache-Miss/410 without re-contacting the edge.
const DefaultNegativeTTL = 30 * time.Second

// ErrStaleVersion reports that a Put carried a payload older than the
// purge high-water mark and was dropped.
var ErrStaleVersion = errors.New("cachepolicy: payload older than purge")

// SetNegativeTTL overrides the negative-cache window (tests and the
// experiment harness).
func (s *Store) SetNegativeTTL(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.negativeTTL = d
}

// Purge applies one coherence bus message: the origin has moved url to
// version (or deleted it entirely if gone). It raises the per-URL purge
// high-water mark — gating later Puts of older payloads — and disposes of
// any resident copy: evicted outright, or, when keepStale is set
// (stale-while-revalidate), kept resident and marked Stale so it can be
// served exactly once more while the caller revalidates in the background.
// It reports whether a resident copy was affected and whether it remains
// resident as a stale entry.
func (s *Store) Purge(url string, version int64, gone, keepStale bool) (resident, stale bool) {
	url = dnswire.BasicURL(url)
	s.mu.Lock()
	defer s.mu.Unlock()
	if version > s.purged[url] {
		s.purged[url] = version
	}
	if gone {
		s.negative[url] = s.clock.Now().Add(s.negativeTTL)
	}
	e, ok := s.entries[url]
	if !ok || e.Version >= version {
		if s.ledger != nil && gone && !ok {
			// Deleted at the origin with no resident copy: the negative
			// window now answers for the URL, so later misses attribute
			// to the purge.
			s.ledger.Record(decisionlog.Event{Time: s.clock.Now(),
				Op: decisionlog.OpPurge, URL: url, Version: version, Gone: true})
		}
		// Nothing resident, or the copy already is the announced version
		// (the purge lost a race with our own refresh) — no action.
		return false, false
	}
	s.purges++
	if s.ledger != nil {
		// Captured before the entry is marked stale or removed: this is
		// the pre-purge utility standing `apectl explain` renders.
		ev := s.ledgerEvent(decisionlog.OpPurge, e, s.clock.Now())
		ev.Gone = gone
		s.ledger.Record(ev)
	}
	if keepStale && !gone {
		e.Stale = true
		e.StaleServed = false
		return true, true
	}
	s.removeEntry(url)
	s.tel.evictedByPurge()
	return true, false
}

// GetStale returns a purged-but-resident entry for its one allowed stale
// serve, consuming the allowance. It fails once the allowance is spent,
// the TTL has expired, or the entry is not marked stale (use Get).
func (s *Store) GetStale(url string) (*Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[url]
	if !ok || !e.Stale || e.StaleServed {
		return nil, false
	}
	now := s.clock.Now()
	if !e.Fresh(now) {
		return nil, false
	}
	e.StaleServed = true
	e.LastUsed = now
	e.Hits++
	s.staleServes.Inc()
	if s.ledger != nil {
		s.ledger.Record(s.ledgerEvent(decisionlog.OpStaleServe, e, now))
	}
	return e, true
}

// Peek returns the resident entry in any state (fresh, stale, expired)
// without touching recency — the revalidator uses it to learn the held
// version for If-None-Match.
func (s *Store) Peek(url string) (*Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[dnswire.BasicURL(url)]
	return e, ok
}

// Revalidated records a 304 outcome: the edge confirmed the resident
// bytes match version, so the entry sheds its stale mark and gets a
// fresh TTL lease.
func (s *Store) Revalidated(url string, version int64) bool {
	url = dnswire.BasicURL(url)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[url]
	if !ok {
		return false
	}
	e.Version = version
	e.Stale = false
	e.StaleServed = false
	e.Expiry = s.clock.Now().Add(e.Object.TTL)
	s.expiries.push(url, e.Expiry)
	if s.ledger != nil {
		s.ledger.Record(s.ledgerEvent(decisionlog.OpRevalidate, e, s.clock.Now()))
	}
	return true
}

// MarkGone records a revalidation that found the object deleted (404/410):
// the resident copy is evicted and the URL negative-cached.
func (s *Store) MarkGone(url string) {
	url = dnswire.BasicURL(url)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.negative[url] = s.clock.Now().Add(s.negativeTTL)
	if e, ok := s.entries[url]; ok {
		if s.ledger != nil {
			ev := s.ledgerEvent(decisionlog.OpPurge, e, s.clock.Now())
			ev.Gone = true
			s.ledger.Record(ev)
		}
		s.removeEntry(url)
		s.purges++
		s.tel.evictedByPurge()
	} else if s.ledger != nil {
		s.ledger.Record(decisionlog.Event{Time: s.clock.Now(),
			Op: decisionlog.OpPurge, URL: url, Gone: true})
	}
}

// NegativeCached reports whether url is inside its negative-cache window.
func (s *Store) NegativeCached(url string) bool {
	url = dnswire.BasicURL(url)
	s.mu.RLock()
	defer s.mu.RUnlock()
	until, ok := s.negative[url]
	return ok && s.clock.Now().Before(until)
}
