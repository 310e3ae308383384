package cachepolicy

import (
	"container/heap"
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
// every resident entry for TTL expiry.
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
// KnownHashesForDomain and AppendDomainFlags O(domain entries) instead of
// a scan over every hash the AP has ever seen.
type domainIndex struct {
	// urls is the batching set of §IV-B — every URL ever seen under the
	// domain, in first-seen order (mirrors the domain's slice of
	// Store.byHash) — and known maps each one's DNS-Cache hash to its
	// position. URLs are never forgotten, so positions are stable.
	urls  []knownURL
	known map[uint64]int
}

// knownURL is one URL of a domain's batching set. entry mirrors
// Store.entries[url] (nil while the URL is not resident), so a flag batch
// walks the slice instead of looking every URL up.
type knownURL struct {
	hash  uint64
	url   string
	entry *Entry
}
