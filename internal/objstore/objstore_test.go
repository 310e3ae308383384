package objstore

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"apecache/internal/coherence"
	"apecache/internal/httplite"
	"apecache/internal/simnet"
	"apecache/internal/transport"
	"apecache/internal/vclock"
)

func obj(url, app string, size int, prio int, delay time.Duration) *Object {
	return &Object{URL: url, App: app, Size: size, TTL: 30 * time.Minute, Priority: prio, OriginDelay: delay}
}

func TestBodyDeterministicAndURLUnique(t *testing.T) {
	a := VersionedBody("http://x/a", 1024, 0)
	b := VersionedBody("http://x/a", 1024, 0)
	c := VersionedBody("http://x/b", 1024, 0)
	if !bytes.Equal(a, b) {
		t.Error("body not deterministic")
	}
	if bytes.Equal(a, c) {
		t.Error("different URLs share a body")
	}
	if len(VersionedBody("u", 0, 0)) != 0 {
		t.Error("zero size should give empty body")
	}
}

func TestBodySizeProperty(t *testing.T) {
	f := func(n uint16) bool { return len(VersionedBody("u", int(n), 0)) == int(n) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCatalogLookups(t *testing.T) {
	o1 := obj("http://api.movie.example/id", "movie", 100, PriorityHigh, 0)
	o2 := obj("http://api.movie.example/cast", "movie", 200, PriorityLow, 0)
	o3 := obj("http://cdn.ar.example/model", "ar", 300, PriorityHigh, 0)
	c := NewCatalog(o1, o2, o3)

	if got, ok := c.Lookup("http://api.movie.example/id?name=dune"); !ok || got != o1 {
		t.Error("Lookup with query params should strip them")
	}
	if got, ok := c.LookupRequest("API.MOVIE.EXAMPLE", "/cast?x=1"); !ok || got != o2 {
		t.Error("LookupRequest should be case-insensitive on host and strip query")
	}
	if _, ok := c.LookupRequest("api.movie.example", "/nope"); ok {
		t.Error("unknown path should miss")
	}
	if len(c.Domains()) != 2 || c.Len() != 3 {
		t.Errorf("domains=%d len=%d", len(c.Domains()), c.Len())
	}
	if len(c.ByDomain("api.movie.example")) != 2 {
		t.Error("ByDomain wrong")
	}
}

func TestCatalogValidate(t *testing.T) {
	good := NewCatalog(obj("http://a.example/x", "a", 10, PriorityLow, 0))
	if err := good.Validate(); err != nil {
		t.Errorf("valid catalog rejected: %v", err)
	}
	for _, bad := range []*Object{
		{URL: "http://a.example/x", App: "a", Size: 0, TTL: time.Minute, Priority: 1},
		{URL: "http://a.example/x", App: "a", Size: 1, TTL: time.Minute, Priority: 3},
		{URL: "http://a.example/x", App: "a", Size: 1, TTL: 0, Priority: 1},
	} {
		if err := NewCatalog(bad).Validate(); err == nil {
			t.Errorf("catalog with %+v passed validation", bad)
		}
	}
}

// edgeFixture wires client -- edge -- origin over simnet.
func edgeFixture(t *testing.T, catalog *Catalog, fn func(sim *vclock.Sim, net *simnet.Network, edge *EdgeCacheServer, origin *OriginServer)) {
	t.Helper()
	sim := vclock.NewSim(time.Time{})
	net := simnet.New(sim, 5)
	net.SetLink("client", "edge", simnet.Path{Latency: 7 * time.Millisecond, Hops: 7})
	net.SetLink("edge", "origin", simnet.Path{Latency: 25 * time.Millisecond, Hops: 10})
	sim.Run("main", func() {
		origin := NewOriginServer(sim, catalog)
		if _, err := origin.Run(net.Node("origin"), 80); err != nil {
			t.Errorf("origin.Run: %v", err)
			return
		}
		edge := NewEdgeCacheServer(sim, net.Node("edge"), catalog, transport.Addr{Host: "origin", Port: 80})
		if _, err := edge.Run(net.Node("edge"), 80); err != nil {
			t.Errorf("edge.Run: %v", err)
			return
		}
		fn(sim, net, edge, origin)
	})
	sim.Shutdown()
	sim.Wait()
	if err := sim.Err(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestEdgeFetchThroughAndCache(t *testing.T) {
	o := obj("http://api.app.example/data", "app", 4096, PriorityHigh, 30*time.Millisecond)
	catalog := NewCatalog(o)
	edgeFixture(t, catalog, func(sim *vclock.Sim, net *simnet.Network, edge *EdgeCacheServer, origin *OriginServer) {
		c := httplite.NewClient(net.Node("client"))
		addr := transport.Addr{Host: "edge", Port: 80}

		start := sim.Now()
		resp, err := c.Get(addr, "api.app.example", "/data")
		if err != nil || resp.Status != 200 {
			t.Errorf("cold get: %v %v", resp, err)
			return
		}
		cold := sim.Now().Sub(start)
		if !bytes.Equal(resp.Body, o.Body()) {
			t.Error("cold body corrupted")
		}
		if resp.Get("X-Ape-Source") != "edge" {
			t.Errorf("source = %q", resp.Get("X-Ape-Source"))
		}

		start = sim.Now()
		resp, err = c.Get(addr, "api.app.example", "/data")
		if err != nil || resp.Status != 200 {
			t.Errorf("warm get: %v %v", resp, err)
			return
		}
		warm := sim.Now().Sub(start)
		if !bytes.Equal(resp.Body, o.Body()) {
			t.Error("warm body corrupted")
		}
		// Warm must skip the origin round trip and its 30 ms delay.
		if warm >= cold-50*time.Millisecond {
			t.Errorf("warm=%v cold=%v: edge cache not effective", warm, cold)
		}
		if edge.hits.Value() != 1 || edge.misses.Value() != 1 || origin.requests.Value() != 1 {
			t.Errorf("hits=%d misses=%d origin=%d", edge.hits.Value(), edge.misses.Value(), origin.requests.Value())
		}
	})
}

func TestEdgeRespectsTTLExpiry(t *testing.T) {
	o := obj("http://api.app.example/data", "app", 64, PriorityLow, 0)
	o.TTL = time.Minute
	catalog := NewCatalog(o)
	edgeFixture(t, catalog, func(sim *vclock.Sim, net *simnet.Network, edge *EdgeCacheServer, origin *OriginServer) {
		c := httplite.NewClient(net.Node("client"))
		addr := transport.Addr{Host: "edge", Port: 80}
		if _, err := c.Get(addr, "api.app.example", "/data"); err != nil {
			t.Errorf("get1: %v", err)
			return
		}
		sim.Sleep(2 * time.Minute) // past TTL
		if _, err := c.Get(addr, "api.app.example", "/data"); err != nil {
			t.Errorf("get2: %v", err)
			return
		}
		if origin.requests.Value() != 2 {
			t.Errorf("origin requests = %d, want 2 (expired entry refetched)", origin.requests.Value())
		}
	})
}

func TestEdgePrepopulateServesWithoutOrigin(t *testing.T) {
	o := obj("http://api.app.example/data", "app", 64, PriorityLow, 0)
	catalog := NewCatalog(o)
	edgeFixture(t, catalog, func(sim *vclock.Sim, net *simnet.Network, edge *EdgeCacheServer, origin *OriginServer) {
		edge.Prepopulate()
		c := httplite.NewClient(net.Node("client"))
		resp, err := c.Get(transport.Addr{Host: "edge", Port: 80}, "api.app.example", "/data")
		if err != nil || resp.Status != 200 {
			t.Errorf("get: %v %v", resp, err)
			return
		}
		if origin.requests.Value() != 0 {
			t.Errorf("origin touched %d times after prepopulate", origin.requests.Value())
		}
	})
}

func TestOriginUnknownObject404(t *testing.T) {
	catalog := NewCatalog()
	edgeFixture(t, catalog, func(sim *vclock.Sim, net *simnet.Network, edge *EdgeCacheServer, origin *OriginServer) {
		c := httplite.NewClient(net.Node("client"))
		resp, err := c.Get(transport.Addr{Host: "edge", Port: 80}, "nothere.example", "/x")
		if err != nil || resp.Status != 404 {
			t.Errorf("resp = %v, %v; want 404", resp, err)
		}
	})
}

func TestVersionedBodyBackwardCompatible(t *testing.T) {
	if !bytes.Equal(obj("http://x/a", "app", 512, PriorityLow, 0).Body(), VersionedBody("http://x/a", 512, 0)) {
		t.Error("an unmutated object's body differs from version 0")
	}
	if bytes.Equal(VersionedBody("http://x/a", 512, 1), VersionedBody("http://x/a", 512, 0)) {
		t.Error("mutated version shares the old body")
	}
}

func TestMutateRemoveAndConditionalGets(t *testing.T) {
	o := obj("http://api.app.example/data", "app", 256, PriorityHigh, 20*time.Millisecond)
	catalog := NewCatalog(o)
	edgeFixture(t, catalog, func(sim *vclock.Sim, net *simnet.Network, edge *EdgeCacheServer, origin *OriginServer) {
		c := httplite.NewClient(net.Node("client"))
		addr := transport.Addr{Host: "edge", Port: 80}

		resp, err := c.Get(addr, "api.app.example", "/data")
		if err != nil || resp.Status != 200 {
			t.Errorf("cold get: %v %v", resp, err)
			return
		}
		v0etag := resp.Get("ETag")
		if v0etag == "" {
			t.Error("edge response missing ETag")
		}

		// Matching validator gets 304 from the warm edge, no body.
		req := httplite.NewRequest("GET", "api.app.example", "/data")
		req.Set("If-None-Match", v0etag)
		resp, err = c.Do(addr, req)
		if err != nil || resp.Status != 304 || len(resp.Body) != 0 {
			t.Errorf("conditional warm get = %v %v, want 304 empty", resp, err)
		}

		// Origin mutation bumps the version; the un-purged edge keeps
		// serving its resident (now stale) copy until invalidated.
		if v, ok := catalog.Mutate(o.URL); !ok || v != 1 {
			t.Errorf("Mutate = %d %v", v, ok)
		}
		resp, err = c.Do(addr, req)
		if err != nil || resp.Status != 304 {
			t.Errorf("stale edge conditional = %v %v, want 304 (TTL-only)", resp, err)
		}

		if !edge.Invalidate(o.URL + "?x=1") {
			t.Error("Invalidate missed resident entry")
		}
		req2 := httplite.NewRequest("GET", "api.app.example", "/data")
		req2.Set("If-None-Match", v0etag)
		resp, err = c.Do(addr, req2)
		if err != nil || resp.Status != 200 || !bytes.Equal(resp.Body, o.Body()) {
			t.Errorf("post-purge conditional = %v %v, want fresh 200", resp, err)
		}
		if got, _ := coherence.ParseETag(resp.Get("ETag")); got != 1 {
			t.Errorf("post-purge ETag = %q, want v1", resp.Get("ETag"))
		}

		// Removal models purged-and-gone: origin 404s after the entry ages
		// out of the edge.
		if v, ok := catalog.Remove(o.URL); !ok || v != 1 {
			t.Errorf("Remove = %d %v", v, ok)
		}
		resp, err = c.Get(addr, "api.app.example", "/data")
		if err != nil || resp.Status != 404 {
			t.Errorf("removed object = %v %v, want 404", resp, err)
		}
	})
}

// TestEdgeDropsFillRacingInvalidate invalidates the edge while its
// origin fill is in flight. The fill still answers its own request, but
// the edge must not cache it: the next request fetches the new version.
func TestEdgeDropsFillRacingInvalidate(t *testing.T) {
	o := obj("http://api.app.example/data", "app", 256, PriorityHigh, 20*time.Millisecond)
	catalog := NewCatalog(o)
	edgeFixture(t, catalog, func(sim *vclock.Sim, net *simnet.Network, edge *EdgeCacheServer, origin *OriginServer) {
		addr := transport.Addr{Host: "edge", Port: 80}
		done := vclock.NewQueue[*httplite.Response](sim, "fill")
		sim.Go("cold-get", func() {
			resp, _ := httplite.NewClient(net.Node("client")).Get(addr, "api.app.example", "/data")
			done.Push(resp)
		})
		// Once the origin has taken the request it produces v0, and the
		// fill is in flight until the response reaches the edge.
		for origin.requests.Value() == 0 {
			sim.Sleep(time.Millisecond)
		}
		catalog.Mutate(o.URL)
		edge.Invalidate(o.URL)
		if resp, _ := done.Pop(); resp == nil || resp.Get("ETag") != coherence.FormatETag(0) {
			t.Errorf("racing fill = %+v, want v0", resp)
			return
		}
		resp, err := httplite.NewClient(net.Node("client")).Get(addr, "api.app.example", "/data")
		if err != nil || resp.Get("ETag") != coherence.FormatETag(1) || !bytes.Equal(resp.Body, o.Body()) {
			t.Errorf("after racing fill: ETag %q (%v), want v1 fetched from the origin", resp.Get("ETag"), err)
		}
		if origin.requests.Value() != 2 {
			t.Errorf("origin requests = %d, want 2", origin.requests.Value())
		}
	})
}

// TestCatalogConcurrentMutate runs Mutate and Remove beside the lookups
// and body reads the origin and edge servers make; run it under -race.
func TestCatalogConcurrentMutate(t *testing.T) {
	a := obj("http://api.app.example/a", "app", 64, PriorityHigh, 0)
	b := obj("http://api.app.example/b", "app", 64, PriorityHigh, 0)
	catalog := NewCatalog(a, b)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range 200 {
			catalog.Mutate(a.URL)
		}
		catalog.Remove(b.URL)
	}()
	for range 200 {
		if o, ok := catalog.LookupRequest("api.app.example", "/a"); ok {
			_, _ = o.ETag(), o.Body()
		}
		for _, o := range catalog.ByDomain("api.app.example") {
			_ = o.URL
		}
	}
	wg.Wait()
	if v, _ := catalog.Mutate(a.URL); v != 201 {
		t.Errorf("version after 201 mutations = %d", v)
	}
}

func BenchmarkVersionedBody(b *testing.B) {
	b.SetBytes(100 << 10)
	for b.Loop() {
		VersionedBody("http://x.example/o", 100<<10, 0)
	}
}
