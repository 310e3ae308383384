// Package apeclient implements the mobile-client side of APE-CACHE: the
// declarative programming model of §IV-A (Go struct tags processed by
// reflection — the exact analog of the paper's runtime-retained Java
// field annotations), the HTTP interceptor, and the cache lookup/fetching
// workflow of §IV-B (piggybacked DNS-Cache queries, flag dispatch to AP,
// edge or delegation).
package apeclient

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"time"

	"apecache/internal/dnswire"
	"apecache/internal/objstore"
)

// TagName is the struct-tag key marking cacheable fields, mirroring the
// paper's @Cacheable annotation:
//
//	type MovieData struct {
//	    Thumbnail []byte `cacheable:"id=http://api.movie.example/thumb,priority=2,ttl=30"`
//	}
//
// id is the basic URL, priority is 1 (low) or 2 (high), ttl is in minutes.
const TagName = "cacheable"

// Cacheable describes one cacheable object declaration.
type Cacheable struct {
	// ID is the basic URL (no query parameters) identifying the object.
	ID string
	// Priority is objstore.PriorityLow or objstore.PriorityHigh.
	Priority int
	// TTL is the object's validity duration.
	TTL time.Duration
}

// Registry errors.
var (
	ErrBadTag       = errors.New("apeclient: malformed cacheable tag")
	ErrNotStructPtr = errors.New("apeclient: RegisterStruct needs a pointer to struct")
)

// Registry holds the cacheable declarations of one app. It backs the
// interceptor: outgoing requests whose basic URL matches a registered ID
// take the APE-CACHE path, everything else passes through untouched.
type Registry struct {
	app        string
	byID       map[string]Cacheable
	byDomain   map[string]domainBatch
	dependents map[string][]string
}

// domainBatch is one canonical domain's declarations in registration
// order, each one's request entry (hash), and the request RR carrying
// them (encoded once per Register).
type domainBatch struct {
	decls   []Cacheable
	request []dnswire.CacheEntry
	rr      dnswire.RR
}

// NewRegistry builds an empty registry for the named app.
func NewRegistry(app string) *Registry {
	return &Registry{
		app:        app,
		byID:       make(map[string]Cacheable),
		byDomain:   make(map[string]domainBatch),
		dependents: make(map[string][]string),
	}
}

// App returns the owning app name.
func (r *Registry) App() string { return r.app }

// Register adds one declaration (the "API-based" alternative model
// evaluated in Table VII).
func (r *Registry) Register(c Cacheable) error {
	if c.ID == "" {
		return fmt.Errorf("%w: empty id", ErrBadTag)
	}
	if c.Priority != objstore.PriorityLow && c.Priority != objstore.PriorityHigh {
		return fmt.Errorf("%w: priority %d not in {1,2}", ErrBadTag, c.Priority)
	}
	if c.TTL <= 0 {
		return fmt.Errorf("%w: non-positive ttl", ErrBadTag)
	}
	id := dnswire.BasicURL(c.ID)
	domain := dnswire.URLDomain(id)
	b, entry := r.byDomain[domain], dnswire.CacheEntry{Hash: dnswire.HashURL(c.ID)}
	if old, ok := r.byID[id]; ok { // re-registered: replace its slot
		i := slices.Index(b.decls, old)
		b.decls[i], b.request[i] = c, entry
	} else {
		b.decls, b.request = append(b.decls, c), append(b.request, entry)
	}
	b.rr = dnswire.NewCacheRR(domain, dnswire.ClassCacheRequest, b.request)
	r.byDomain[domain], r.byID[id] = b, c
	return nil
}

// RegisterStruct scans v (a pointer to struct) for `cacheable` tags and
// registers every declaration found — the annotation-based model.
func (r *Registry) RegisterStruct(v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.Elem().Kind() != reflect.Struct {
		return ErrNotStructPtr
	}
	rt := rv.Elem().Type()
	found := 0
	for i := range rt.NumField() {
		tag, ok := rt.Field(i).Tag.Lookup(TagName)
		if !ok {
			continue
		}
		c, err := ParseTag(tag)
		if err != nil {
			return fmt.Errorf("field %s.%s: %w", rt.Name(), rt.Field(i).Name, err)
		}
		if err := r.Register(c); err != nil {
			return fmt.Errorf("field %s.%s: %w", rt.Name(), rt.Field(i).Name, err)
		}
		found++
	}
	if found == 0 {
		return fmt.Errorf("%w: no cacheable tags in %s", ErrBadTag, rt.Name())
	}
	return nil
}

// ParseTag parses one `cacheable:"..."` tag value.
func ParseTag(tag string) (Cacheable, error) {
	c := Cacheable{Priority: objstore.PriorityLow}
	for _, part := range strings.Split(tag, ",") {
		key, value, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return Cacheable{}, fmt.Errorf("%w: %q", ErrBadTag, part)
		}
		switch key {
		case "id":
			c.ID = value
		case "priority":
			p, err := strconv.Atoi(value)
			if err != nil {
				return Cacheable{}, fmt.Errorf("%w: priority %q", ErrBadTag, value)
			}
			c.Priority = p
		case "ttl":
			minutes, err := strconv.Atoi(value)
			if err != nil {
				return Cacheable{}, fmt.Errorf("%w: ttl %q", ErrBadTag, value)
			}
			c.TTL = time.Duration(minutes) * time.Minute
		default:
			return Cacheable{}, fmt.Errorf("%w: unknown key %q", ErrBadTag, key)
		}
	}
	if c.ID == "" {
		return Cacheable{}, fmt.Errorf("%w: missing id", ErrBadTag)
	}
	return c, nil
}

// Lookup matches a URL (parameters stripped) against the registry.
func (r *Registry) Lookup(rawURL string) (Cacheable, bool) {
	c, ok := r.byID[dnswire.BasicURL(rawURL)]
	return c, ok
}

// ByDomain returns the declarations registered under the domain, in
// registration order: the batch of one DNS-Cache request. Read-only.
func (r *Registry) ByDomain(domain string) []Cacheable {
	return r.byDomain[dnswire.CanonicalName(domain)].decls
}

// requestRR returns that batch as a DNS-Cache request RR. Read-only.
func (r *Registry) requestRR(domain string) dnswire.RR {
	return r.byDomain[dnswire.CanonicalName(domain)].rr
}

// Len returns the number of registered declarations.
func (r *Registry) Len() int { return len(r.byID) }

// DeclareDependents records that fetching root is typically followed by
// fetching deps — the request-dependency information of the APPx-style
// prefetching extension. The client forwards it to the AP on delegation
// (X-Ape-Prefetch) so the AP can warm the dependents before the app asks.
// Both root and every dependent must already be registered.
func (r *Registry) DeclareDependents(root string, deps ...string) error {
	rootID := dnswire.BasicURL(root)
	if _, ok := r.byID[rootID]; !ok {
		return fmt.Errorf("%w: unregistered root %q", ErrBadTag, root)
	}
	for _, d := range deps {
		id := dnswire.BasicURL(d)
		if _, ok := r.byID[id]; !ok {
			return fmt.Errorf("%w: unregistered dependent %q", ErrBadTag, d)
		}
		r.dependents[rootID] = append(r.dependents[rootID], id)
	}
	return nil
}

// Dependents returns the declared successors of root.
func (r *Registry) Dependents(root string) []string {
	return r.dependents[dnswire.BasicURL(root)]
}
