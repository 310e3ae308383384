package main

import (
	"bytes"
	"fmt"
	"math/rand"
	neturl "net/url"
	"sync"
	"sync/atomic"
	"time"

	"apecache/internal/coherence"
	"apecache/internal/dnswire"
	"apecache/internal/objstore"
)

// object is one catalogued object with everything the timed loop needs
// precomputed: no URL formatting, hashing or body generation per op.
type object struct {
	url, domain, path string
	cachePath         string // the AP's /cache request target for this object
	app               int
	priority          int
	hash              uint64
	body              []byte    // version-0 payload
	ver               *versions // purge-mix only: the mutable origin state
}

// versionRing bounds how many past versions of an object stay checkable.
// A body older than that was superseded long before the stale bound.
const versionRing = 16

// version is one origin version of an object.
type version struct {
	n    int64
	body []byte
	etag string
	// published is the wall time (unix ns) at which coherence.Publish of
	// this version returned; 0 until then, and for version 0.
	published atomic.Int64
}

// versions is the benchmark-owned origin state of one purge-mix object.
// objstore.Catalog.Mutate is documented unsafe beside readers, so the
// origin handler serves from here instead (see README, findings).
type versions struct {
	staleBound time.Duration
	// fill orders origin bumps against edge fills of the same object: a
	// bump holds it exclusively from the version change until Publish
	// returned, the edge handler holds it shared (see fillGuard).
	fill sync.RWMutex
	cur  atomic.Pointer[version]
	ring [versionRing]atomic.Pointer[version]
}

func newVersions(body []byte, staleBound time.Duration) *versions {
	v := &versions{staleBound: staleBound}
	v0 := &version{body: body, etag: coherence.FormatETag(0)}
	v.cur.Store(v0)
	v.ring[0].Store(v0)
	return v
}

// inputs is everything one round feeds the system, derived from the
// workload and the seed alone.
type inputs struct {
	spec    workloadSpec
	objects []*object
	// probeSmall/probeLarge are catalogued and edge-resident but never in
	// an op list; the traced run fetches them for the *_small / *_large
	// ladder probes.
	probeSmall, probeLarge *object
	catalog                *objstore.Catalog
	byHostPath             map[string]*object
	// entries[domain] is the hash batch a client's DNS-Cache query carries
	// for that domain: every object under it.
	entries map[string][]dnswire.CacheEntry
	// ops[c] is client c's object sequence; purges[c] its purge targets.
	ops    [numClients][]int32
	purges [numClients][]int32
}

const probeDomain = "probe.bench.example"

func newObject(domain, path string, app, size, priority int) (*object, *objstore.Object) {
	url := "http://" + domain + path
	o := &object{
		url: url, domain: domain, path: path, app: app, priority: priority,
		cachePath: "/cache?u=" + neturl.QueryEscape(url) + "&app=" + neturl.QueryEscape(appName(app)),
		hash:      dnswire.HashURL(url),
		body:      objstore.VersionedBody(url, size, 0),
	}
	return o, &objstore.Object{
		URL: url, App: appName(app), Size: size, TTL: objectTTL, Priority: priority,
	}
}

func appName(app int) string { return fmt.Sprintf("app%d", app) }

// generate builds the catalog, the expected bodies and the per-client op
// lists. The same (spec, seed) always yields the same inputs.
func generate(spec workloadSpec, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{spec: spec, byHostPath: make(map[string]*object, spec.objects+2),
		entries: make(map[string][]dnswire.CacheEntry, spec.domains)}
	var catalogued []*objstore.Object
	add := func(o *object, co *objstore.Object) {
		in.byHostPath[o.domain+o.path] = o
		catalogued = append(catalogued, co)
	}
	for i := 0; i < spec.objects; i++ {
		app := i % spec.domains
		priority := objstore.PriorityLow + i%2
		o, co := newObject(fmt.Sprintf("a%d.bench.example", app), fmt.Sprintf("/s%d/o%d", seed, i), app, spec.objSize, priority)
		if spec.purgeEvery > 0 {
			o.ver = newVersions(o.body, spec.staleBound)
		}
		in.objects = append(in.objects, o)
		in.entries[o.domain] = append(in.entries[o.domain], dnswire.CacheEntry{Hash: o.hash})
		add(o, co)
	}
	var co *objstore.Object
	in.probeSmall, co = newObject(probeDomain, "/small", spec.domains, smallBody, objstore.PriorityHigh)
	add(in.probeSmall, co)
	in.probeLarge, co = newObject(probeDomain, "/large", spec.domains, largeBody, objstore.PriorityHigh)
	add(in.probeLarge, co)
	in.catalog = objstore.NewCatalog(catalogued...)

	// Object i has popularity rank i, so domains and priorities alternate
	// down the ranks the same way under every seed: the seed names the
	// objects (hashes, bodies) and orders the draws, it does not decide
	// whether the hottest object is a high-priority one.
	draw := func() int { return rng.Intn(spec.objects) }
	if spec.zipfS > 0 {
		z := rand.NewZipf(rng, spec.zipfS, 1, uint64(spec.objects-1))
		draw = func() int { return int(z.Uint64()) }
	}
	for c := 0; c < numClients; c++ {
		in.ops[c] = make([]int32, opsPerClient)
		for i := range in.ops[c] {
			in.ops[c][i] = int32(draw())
		}
		if spec.purgeEvery > 0 {
			// Client c only purges objects with index = c mod numClients:
			// two purges of one object are then at least purgeEvery ops
			// apart, far longer than one revalidation takes.
			in.purges[c] = make([]int32, opsPerClient/spec.purgeEvery+1)
			for i := range in.purges[c] {
				t := draw()
				in.purges[c][i] = int32(t - t%numClients + c)
			}
		}
	}
	return in
}

// verdict classifies one response body.
type verdict int

const (
	bodyOK verdict = iota
	bodyWrong
	bodyStale // a superseded version, beyond the workload's stale bound
)

// verify checks a response body against the precomputed expectation. For
// versioned objects any version is acceptable whose successor was not yet
// published the workload's stale bound before the Get began.
func (o *object) verify(body []byte, began time.Time) verdict {
	if o.ver == nil {
		if bytes.Equal(body, o.body) {
			return bodyOK
		}
		return bodyWrong
	}
	for i := range o.ver.ring {
		v := o.ver.ring[i].Load()
		if v == nil || !bytes.Equal(body, v.body) {
			continue
		}
		if v == o.ver.cur.Load() {
			return bodyOK
		}
		next := o.ver.ring[(v.n+1)%versionRing].Load()
		if next == nil || next.n != v.n+1 {
			return bodyStale // successor already rotated out of the ring
		}
		if p := next.published.Load(); p != 0 && began.UnixNano()-p > int64(o.ver.staleBound) {
			return bodyStale
		}
		return bodyOK
	}
	return bodyWrong
}

// bump produces the object's next origin version and publishes its purge
// through publish, which must return once the hub has accepted it.
func (o *object) bump(publish func(coherence.Msg) error) error {
	vs := o.ver
	vs.fill.Lock()
	defer vs.fill.Unlock()
	n := vs.cur.Load().n + 1
	v := &version{n: n, body: objstore.VersionedBody(o.url, len(o.body), n), etag: coherence.FormatETag(n)}
	vs.ring[n%versionRing].Store(v)
	vs.cur.Store(v)
	if err := publish(coherence.Msg{URL: o.url, Version: n}); err != nil {
		return err
	}
	v.published.Store(time.Now().UnixNano())
	return nil
}
