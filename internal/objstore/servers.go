package objstore

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"apecache/internal/coherence"
	"apecache/internal/dnswire"
	"apecache/internal/httplite"
	"apecache/internal/telemetry"
	"apecache/internal/transport"
	"apecache/internal/vclock"
)

// OriginServer serves catalog objects, sleeping each object's OriginDelay
// before responding to model a distant or slow producer.
type OriginServer struct {
	env     vclock.Env
	catalog *Catalog
	// requests counts objects served (server load).
	requests telemetry.Counter
	tel      atomic.Pointer[telemetry.Telemetry]
}

// NewOriginServer builds the origin handler.
func NewOriginServer(env vclock.Env, catalog *Catalog) *OriginServer {
	return &OriginServer{env: env, catalog: catalog}
}

var _ httplite.Handler = (*OriginServer)(nil)

// ServeHTTP implements httplite.Handler. Responses carry the object's
// version as an ETag; a matching If-None-Match gets 304 without paying
// the production delay (validating is cheap, re-producing is not).
func (s *OriginServer) ServeHTTP(req *httplite.Request) *httplite.Response {
	obj, ok := s.catalog.LookupRequest(req.Host, req.Path)
	if !ok {
		return httplite.NewResponse(404, []byte("unknown object"))
	}
	s.requests.Inc()
	if trace, ok := telemetry.ParseTraceID(req.Get(telemetry.TraceHeader)); ok {
		tel := s.tel.Load()
		start := s.env.Now()
		defer func() {
			tel.Span(trace, "origin-serve", "origin:"+req.Host,
				start, s.env.Now().Sub(start), "path="+req.Path)
		}()
	}
	// One version read per request: a Mutate during the production delay
	// must not pair this version's ETag with the next version's bytes.
	version := obj.CurrentVersion()
	etag := coherence.FormatETag(version)
	if inm := req.Get("If-None-Match"); inm != "" && inm == etag {
		resp := httplite.NewResponse(304, nil)
		resp.Set("ETag", etag)
		resp.Set("X-Ape-Source", "origin")
		return resp
	}
	s.env.Sleep(obj.OriginDelay)
	resp := httplite.NewResponse(200, VersionedBody(obj.URL, obj.Size, version))
	resp.Set("ETag", etag)
	resp.Set("X-Ape-Source", "origin")
	return resp
}

// Run listens on the host/port and serves until the listener closes.
func (s *OriginServer) Run(host transport.Host, port uint16) (transport.Listener, error) {
	l, err := host.Listen(port)
	if err != nil {
		return nil, fmt.Errorf("origin: %w", err)
	}
	srv := httplite.NewServer(s.env, s)
	s.env.Go("origin.server", func() { srv.Serve(l) })
	return l, nil
}

// edgeEntry is one cached object on the edge server.
type edgeEntry struct {
	body    []byte
	expiry  time.Time
	version int64
	etag    string
}

// EdgeCacheServer is the classic edge cache of the baseline: ample
// capacity (no replacement — the paper's stated assumption), TTL-respecting,
// fetch-through to the origin on miss.
type EdgeCacheServer struct {
	env     vclock.Env
	catalog *Catalog
	client  *httplite.Client
	origin  transport.Addr
	mu      sync.Mutex
	cache   map[string]edgeEntry
	// purges counts Invalidate calls per URL, so a fill that was in
	// flight across one is not cached.
	purges map[string]uint64
	// hits and misses count cache outcomes.
	hits, misses telemetry.Counter

	tel atomic.Pointer[edgeTel]
}

// NewEdgeCacheServer builds an edge cache that fills from the origin at
// originAddr, dialing from the given host.
func NewEdgeCacheServer(env vclock.Env, host transport.Host, catalog *Catalog, originAddr transport.Addr) *EdgeCacheServer {
	return &EdgeCacheServer{
		env:     env,
		catalog: catalog,
		client:  httplite.NewClient(host),
		origin:  originAddr,
		cache:   make(map[string]edgeEntry),
		purges:  make(map[string]uint64),
	}
}

var _ httplite.Handler = (*EdgeCacheServer)(nil)

// Prepopulate loads every catalog object into the edge cache as if
// previously requested, matching the paper's "ample capacity" assumption
// for steady-state runs.
func (s *EdgeCacheServer) Prepopulate() {
	now := s.env.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, o := range s.catalog.All() {
		v := o.CurrentVersion()
		s.cache[o.URL] = edgeEntry{body: VersionedBody(o.URL, o.Size, v), expiry: now.Add(o.TTL), version: v, etag: coherence.FormatETag(v)}
	}
}

// Invalidate drops the edge's cached copy of url, if any, and keeps any
// origin fill of url already in flight from being cached. The coherence
// hub calls it on purge publication, before relaying to subscribers, so
// AP revalidations always fetch through to the new origin version.
func (s *EdgeCacheServer) Invalidate(url string) bool {
	basic := dnswire.BasicURL(url)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.purges[basic]++
	if _, ok := s.cache[basic]; !ok {
		return false
	}
	delete(s.cache, basic)
	return true
}

// ServeHTTP implements httplite.Handler. A warm edge serves everyone at
// wire speed — the per-object OriginDelay is charged only on the
// fetch-through to the origin (cold objects), matching the paper's
// Fig 11c where a delegated fetch costs about the same as a direct edge
// retrieval.
func (s *EdgeCacheServer) ServeHTTP(req *httplite.Request) *httplite.Response {
	obj, ok := s.catalog.LookupRequest(req.Host, req.Path)
	if !ok {
		return httplite.NewResponse(404, []byte("unknown object"))
	}
	trace, _ := telemetry.ParseTraceID(req.Get(telemetry.TraceHeader))
	tel := s.tel.Load()
	result := "miss"
	if trace != 0 && tel != nil {
		start := s.env.Now()
		defer func() {
			tel.tel.Span(trace, "edge-fetch", "edge:"+req.Host,
				start, s.env.Now().Sub(start), "result="+result)
		}()
	}
	s.mu.Lock()
	if e, ok := s.cache[obj.URL]; ok && s.env.Now().Before(e.expiry) {
		s.mu.Unlock()
		s.hits.Inc()
		result = "hit"
		if inm := req.Get("If-None-Match"); inm != "" && inm == e.etag {
			resp := httplite.NewResponse(304, nil)
			resp.Set("ETag", e.etag)
			resp.Set("X-Ape-Source", "edge")
			return resp
		}
		resp := httplite.NewResponse(200, e.body)
		resp.Set("ETag", e.etag)
		resp.Set("X-Ape-Source", "edge")
		return resp
	}
	purges := s.purges[obj.URL]
	s.mu.Unlock()
	s.misses.Inc()
	// Fetch through to the origin, passing the trace along so its span
	// nests under this edge-fetch.
	originReq := httplite.NewRequest("GET", obj.Domain(), obj.Path())
	if trace != 0 {
		originReq.Set(telemetry.TraceHeader, trace.String())
	}
	fillStart := s.env.Now()
	origin, err := s.client.Do(s.origin, originReq)
	if trace != 0 && tel != nil {
		tel.tel.Span(trace, "origin-fetch", "edge:"+req.Host,
			fillStart, s.env.Now().Sub(fillStart), "url="+obj.URL)
	}
	if err != nil {
		return httplite.NewResponse(502, []byte(err.Error()))
	}
	if origin.Status != 200 {
		return origin
	}
	tel.fill()
	etag := origin.Get("ETag")
	version, _ := coherence.ParseETag(etag)
	s.mu.Lock()
	if s.purges[obj.URL] == purges {
		s.cache[obj.URL] = edgeEntry{body: origin.Body, expiry: s.env.Now().Add(obj.TTL), version: version, etag: etag}
	}
	s.mu.Unlock()
	if inm := req.Get("If-None-Match"); inm != "" && inm == etag {
		resp := httplite.NewResponse(304, nil)
		resp.Set("ETag", etag)
		resp.Set("X-Ape-Source", "edge")
		return resp
	}
	resp := httplite.NewResponse(200, origin.Body)
	resp.Set("ETag", etag)
	resp.Set("X-Ape-Source", "edge")
	return resp
}

// Run listens on the host/port and serves until the listener closes.
func (s *EdgeCacheServer) Run(host transport.Host, port uint16) (transport.Listener, error) {
	l, err := host.Listen(port)
	if err != nil {
		return nil, fmt.Errorf("edge: %w", err)
	}
	srv := httplite.NewServer(s.env, s)
	s.env.Go("edge.server", func() { srv.Serve(l) })
	return l, nil
}
