package cachepolicy

import (
	"container/heap"
	"sync"
	"time"
)

// expiryItem is one lazily-invalidated entry in an expiry min-heap. An
// item is current only while the resident entry for its URL still carries
// exactly this expiry; refreshes and revalidations push a new item instead
// of searching for the old one, and superseded items are discarded when
// they surface at the top.
type expiryItem struct {
	url    string
	expiry time.Time
}

// expiryHeap is a min-heap over entry expiries. It gives the store an
// O(log n) answer to "which entry expires next?" so Put no longer scans
// every resident entry for TTL expiry, and gives the per-domain index an
// O(1) answer to "is every entry of this domain still fresh?".
type expiryHeap []expiryItem

func (h expiryHeap) Len() int           { return len(h) }
func (h expiryHeap) Less(i, j int) bool { return h[i].expiry.Before(h[j].expiry) }
func (h expiryHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *expiryHeap) Push(x any)        { *h = append(*h, x.(expiryItem)) }
func (h *expiryHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

func (h *expiryHeap) push(url string, expiry time.Time) {
	heap.Push(h, expiryItem{url: url, expiry: expiry})
}

// popExpiry removes and returns the heap top.
func popExpiry(h *expiryHeap) expiryItem {
	return heap.Pop(h).(expiryItem)
}

// domainIndex is the per-domain lookup index maintained incrementally on
// every Put/evict/sweep/purge/stale transition. It makes
// KnownHashesForDomain O(domain entries) — instead of a scan over every
// hash the AP has ever seen — and DomainFullyCached O(1) amortized.
type domainIndex struct {
	// repair guards the lazily-maintained parts (expiries, negative) so
	// concurrent readers holding the store's read lock can clean them
	// without racing each other. Writers hold the store's write lock,
	// which already excludes readers, but take repair too for symmetry.
	repair sync.Mutex
	// urls is the batching set of §IV-B — every URL ever seen under the
	// domain, in first-seen order (mirrors the domain's slice of
	// Store.byHash) — and known maps each one's DNS-Cache hash to its
	// position. URLs are never forgotten, so positions are stable.
	urls  []knownURL
	known map[uint64]int
	// hits counts resident, non-stale entries — the URLs whose flag is
	// Cache-Hit provided they are still within TTL. The domain is fully
	// cached iff hits == len(known), no resident entry has expired, and no
	// known URL sits in an active negative-cache window.
	hits int
	// expiries is the domain's lazy min-heap over resident non-stale
	// entries; the top (after discarding superseded items) is the earliest
	// expiry that could break the fully-cached condition.
	expiries expiryHeap
	// negative holds known URLs that may be inside a negative-cache
	// window. Entries are removed lazily once their window lapses (and on
	// Put, which clears the store-level window too).
	negative map[string]struct{}
}

// knownURL is one URL of a domain's batching set. entry mirrors
// Store.entries[url] (nil while the URL is not resident), so a flag batch
// walks the slice instead of looking every URL up.
type knownURL struct {
	hash  uint64
	url   string
	entry *Entry
}

func newDomainIndex() *domainIndex {
	return &domainIndex{
		known:    make(map[uint64]int),
		negative: make(map[string]struct{}),
	}
}

// domainFor returns the index for a canonical domain, creating it when
// create is set. Callers hold the store's write lock when creating.
func (s *Store) domainFor(domain string, create bool) *domainIndex {
	di, ok := s.domains[domain]
	if !ok && create {
		di = newDomainIndex()
		s.domains[domain] = di
	}
	return di
}
