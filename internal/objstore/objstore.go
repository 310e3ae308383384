// Package objstore models the cacheable data objects of the paper's
// evaluation — each object has a URL identity, an owning app, a size, a
// TTL, a developer-assigned priority, and a simulated origin retrieval
// latency (the paper hosts objects on its edge server "with an added delay
// to simulate the latency experienced when retrieving them from various
// servers") — plus the origin and edge-cache HTTP servers that serve them.
package objstore

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"apecache/internal/coherence"
	"apecache/internal/dnswire"
)

// Priority levels: the paper's programming model "accepts values of 1 or
// 2, which stand for low and high priority".
const (
	PriorityLow  = 1
	PriorityHigh = 2
)

// Object describes one cacheable data object.
type Object struct {
	// URL is the basic URL (no query parameters) that identifies the
	// object for caching.
	URL string
	// App names the owning application (A_d in the PACM model).
	App string
	// Size is the object's payload size in bytes.
	Size int
	// TTL is the validity duration assigned by the developer.
	TTL time.Duration
	// Priority is PriorityLow or PriorityHigh (p_d).
	Priority int
	// OriginDelay is the simulated extra latency of producing the object
	// at the origin (20–50 ms in the paper's synthetic workload).
	OriginDelay time.Duration
	// Version is the object's origin version, bumped by Catalog.Mutate
	// whenever the origin re-produces the object. It is carried across
	// the stack as an ETag and drives the coherence subsystem's purge and
	// revalidation decisions. Version 0 is the initial state. Once the
	// object is in a catalog, read it through Body, ETag or CurrentVersion:
	// Mutate may bump it concurrently.
	Version int64
}

// Domain returns the object's URL host.
func (o *Object) Domain() string { return dnswire.URLDomain(o.URL) }

// Path returns the object's URL path.
func (o *Object) Path() string { return dnswire.URLPath(o.URL) }

// Hash returns the object's DNS-Cache hash.
func (o *Object) Hash() uint64 { return dnswire.HashURL(o.URL) }

// Body deterministically generates the object's payload for its current
// version: a repeating pattern derived from the URL and version so
// integrity — and staleness — can be checked anywhere in the stack
// without storing bodies.
func (o *Object) Body() []byte { return VersionedBody(o.URL, o.Size, o.CurrentVersion()) }

// ETag returns the object's current HTTP validator.
func (o *Object) ETag() string { return coherence.FormatETag(o.CurrentVersion()) }

// CurrentVersion reads Version safely against a concurrent Mutate. A
// server that needs a matching ETag and body reads it once and derives
// both from it.
func (o *Object) CurrentVersion() int64 { return atomic.LoadInt64(&o.Version) }

// VersionedBody generates the deterministic payload for a url/size pair
// at a given origin version. Version 0 is an unmutated object's body; any
// other version produces different bytes, which is what lets the
// coherence experiments detect a stale serve by comparing payloads.
func VersionedBody(url string, size int, version int64) []byte {
	if size <= 0 {
		return nil
	}
	seed := dnswire.HashURL(url) ^ (uint64(version) * 0x9E3779B97F4A7C15)
	body := make([]byte, size)
	state := seed
	for i := range body {
		// xorshift64 keeps generation cheap and content url-unique.
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		body[i] = byte(state)
	}
	return body
}

// Catalog is the universe of objects known to the origin, indexed by
// basic URL and by domain. It is safe for concurrent use: Mutate and
// Remove may run beside the servers' lookups.
type Catalog struct {
	mu       sync.RWMutex
	byURL    map[string]*Object
	byDomain map[string][]*Object
	ordered  []*Object
}

// NewCatalog builds a catalog from the given objects.
func NewCatalog(objects ...*Object) *Catalog {
	c := &Catalog{
		byURL:    make(map[string]*Object, len(objects)),
		byDomain: make(map[string][]*Object),
	}
	for _, o := range objects {
		c.Add(o)
	}
	return c
}

// Add registers an object (replacing any previous object with the same
// URL in the byURL index; the replaced object remains in iteration order).
func (c *Catalog) Add(o *Object) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.byURL[o.URL] = o
	c.byDomain[o.Domain()] = append(c.byDomain[o.Domain()], o)
	c.ordered = append(c.ordered, o)
}

// Lookup finds an object by basic URL.
func (c *Catalog) Lookup(url string) (*Object, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	o, ok := c.byURL[dnswire.BasicURL(url)]
	return o, ok
}

// LookupRequest finds an object by Host header and request path.
func (c *Catalog) LookupRequest(host, path string) (*Object, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, o := range c.byDomain[dnswire.CanonicalName(host)] {
		if o.Path() == dnswire.BasicURL(path) {
			return o, true
		}
	}
	return nil, false
}

// Domains returns every distinct domain in the catalog.
func (c *Catalog) Domains() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	domains := make([]string, 0, len(c.byDomain))
	for d := range c.byDomain {
		domains = append(domains, d)
	}
	return domains
}

// ByDomain returns the objects under one domain.
func (c *Catalog) ByDomain(domain string) []*Object {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.byDomain[dnswire.CanonicalName(domain)]
}

// All returns every object in insertion order.
func (c *Catalog) All() []*Object {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ordered
}

// Mutate models an origin update: it bumps the object's version, which
// changes the payload Body generates, and returns the new version. The
// caller is responsible for publishing the corresponding purge on the
// coherence bus.
func (c *Catalog) Mutate(url string) (int64, bool) {
	o, ok := c.Lookup(url)
	if !ok {
		return 0, false
	}
	return atomic.AddInt64(&o.Version, 1), true
}

// Remove models an origin deletion: the object disappears from the
// byURL/byDomain indexes so subsequent requests 404, mirroring a
// purged-and-gone object. It returns the removed object's last version.
func (c *Catalog) Remove(url string) (int64, bool) {
	basic := dnswire.BasicURL(url)
	c.mu.Lock()
	defer c.mu.Unlock()
	o, ok := c.byURL[basic]
	if !ok {
		return 0, false
	}
	delete(c.byURL, basic)
	domain := o.Domain()
	objs := c.byDomain[domain]
	for i, other := range objs {
		if other == o {
			// A fresh slice: ByDomain callers may still hold the old one.
			c.byDomain[domain] = slices.Delete(slices.Clone(objs), i, i+1)
			break
		}
	}
	return o.CurrentVersion(), true
}

// Len returns the number of objects.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.byURL)
}

// Validate checks catalog invariants (positive sizes, valid priorities,
// TTLs); the workload generator relies on it.
func (c *Catalog) Validate() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, o := range c.byURL {
		if o.Size <= 0 {
			return fmt.Errorf("objstore: %s: non-positive size %d", o.URL, o.Size)
		}
		if o.Priority != PriorityLow && o.Priority != PriorityHigh {
			return fmt.Errorf("objstore: %s: priority %d not in {1,2}", o.URL, o.Priority)
		}
		if o.TTL <= 0 {
			return fmt.Errorf("objstore: %s: non-positive TTL %v", o.URL, o.TTL)
		}
		if o.Domain() == "" {
			return fmt.Errorf("objstore: %s: empty domain", o.URL)
		}
	}
	return nil
}
