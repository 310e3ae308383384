package apeclient

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"apecache/internal/apcache"
	"apecache/internal/cachepolicy"
	"apecache/internal/dnsd"
	"apecache/internal/dnswire"
	"apecache/internal/objstore"
	"apecache/internal/simnet"
	"apecache/internal/telemetry"
	"apecache/internal/transport"
	"apecache/internal/vclock"
)

// fixture assembles a minimal full stack:
//
//	client --1.5ms-- ap --8ms-- ldns --3ms-- auth
//	                  \--14ms-- edge --25ms-- origin
type fixture struct {
	sim     *vclock.Sim
	net     *simnet.Network
	ap      *apcache.AP
	edge    *objstore.EdgeCacheServer
	edgeTel *telemetry.Telemetry
	origin  *objstore.OriginServer
	book    *dnsd.AddrBook
	catalog *objstore.Catalog
}

func newFixture(t *testing.T, sim *vclock.Sim, catalog *objstore.Catalog, policy cachepolicy.Policy, capacity int64) *fixture {
	t.Helper()
	net := simnet.New(sim, 23)
	net.SetLink("client", "ap", simnet.Path{Latency: 1500 * time.Microsecond})
	net.SetLink("ap", "ldns", simnet.Path{Latency: 8 * time.Millisecond})
	net.SetLink("ldns", "auth", simnet.Path{Latency: 3 * time.Millisecond})
	net.SetLink("ap", "edge", simnet.Path{Latency: 14 * time.Millisecond, Hops: 7})
	net.SetLink("client", "edge", simnet.Path{Latency: 15 * time.Millisecond, Hops: 8})
	net.SetLink("edge", "origin", simnet.Path{Latency: 25 * time.Millisecond, Hops: 12})

	book := dnsd.NewAddrBook()
	edgeIP := book.Assign("edge")

	rng := rand.New(rand.NewSource(77))

	// Authoritative server maps every catalog domain to the edge.
	auth := dnsd.NewAuthoritative(sim)
	for _, d := range catalog.Domains() {
		auth.Add(dnswire.NewA(d, 20, edgeIP))
	}
	authPC, err := net.Node("auth").ListenPacket(53)
	if err != nil {
		t.Fatalf("auth listen: %v", err)
	}
	sim.Go("dns.auth", func() { dnsd.Serve(sim, authPC, auth) })

	ldns := dnsd.NewResolver(sim, net.Node("ldns"), rng)
	ldns.Delegate("", transport.Addr{Host: "auth", Port: 53})
	ldnsPC, err := net.Node("ldns").ListenPacket(53)
	if err != nil {
		t.Fatalf("ldns listen: %v", err)
	}
	sim.Go("dns.ldns", func() { dnsd.Serve(sim, ldnsPC, ldns) })

	origin := objstore.NewOriginServer(sim, catalog)
	if _, err := origin.Run(net.Node("origin"), 80); err != nil {
		t.Fatalf("origin: %v", err)
	}
	edge := objstore.NewEdgeCacheServer(sim, net.Node("edge"), catalog, transport.Addr{Host: "origin", Port: 80})
	edgeTel := telemetry.New(sim)
	edge.Instrument(edgeTel)
	if _, err := edge.Run(net.Node("edge"), 80); err != nil {
		t.Fatalf("edge: %v", err)
	}

	ap := apcache.New(apcache.Config{
		Env:           sim,
		Host:          net.Node("ap"),
		Upstream:      transport.Addr{Host: "ldns", Port: 53},
		EdgeAddr:      transport.Addr{Host: "edge", Port: 80},
		CacheCapacity: capacity,
		Policy:        policy,
		Rng:           rng,
	})
	if err := ap.Start(); err != nil {
		t.Fatalf("ap.Start: %v", err)
	}

	return &fixture{sim: sim, net: net, ap: ap, edge: edge, edgeTel: edgeTel, origin: origin, book: book, catalog: catalog}
}

// edgeLookups reads the edge's cache hits plus misses off its registry.
func (fx *fixture) edgeLookups() float64 {
	m := fx.edgeTel.Metrics.Expand()
	return m[`edge_cache_lookups_total{result="hit"}`] + m[`edge_cache_lookups_total{result="miss"}`]
}

func (fx *fixture) newClient(reg *Registry) *Client {
	return New(Config{
		Env:      fx.sim,
		Host:     fx.net.Node("client"),
		Registry: reg,
		APDNS:    fx.ap.DNSAddr(),
		APHTTP:   fx.ap.HTTPAddr(),
		Book:     fx.book,
		Rng:      rand.New(rand.NewSource(3)),
	})
}

func movieCatalog() *objstore.Catalog {
	return objstore.NewCatalog(
		&objstore.Object{URL: "http://api.movie.example/id", App: "movie", Size: 128,
			TTL: 30 * time.Minute, Priority: 2, OriginDelay: 20 * time.Millisecond},
		&objstore.Object{URL: "http://api.movie.example/thumb", App: "movie", Size: 60 << 10,
			TTL: 30 * time.Minute, Priority: 2, OriginDelay: 45 * time.Millisecond},
	)
}

func movieRegistry() *Registry {
	r := NewRegistry("movie")
	_ = r.Register(Cacheable{ID: "http://api.movie.example/id", Priority: 2, TTL: 30 * time.Minute})
	_ = r.Register(Cacheable{ID: "http://api.movie.example/thumb", Priority: 2, TTL: 30 * time.Minute})
	return r
}

func runFixture(t *testing.T, catalog *objstore.Catalog, capacity int64, fn func(fx *fixture)) {
	t.Helper()
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() {
		fx := newFixture(t, sim, catalog, cachepolicy.NewPACM(), capacity)
		fn(fx)
	})
	sim.Shutdown()
	sim.Wait()
	if err := sim.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestDelegationThenCacheHit(t *testing.T) {
	catalog := movieCatalog()
	obj, _ := catalog.Lookup("http://api.movie.example/id")
	runFixture(t, catalog, 5<<20, func(fx *fixture) {
		c := fx.newClient(movieRegistry())

		// First fetch: Delegation — AP fetch-through, object lands in the
		// AP cache.
		start := fx.sim.Now()
		body, err := c.Get("http://api.movie.example/id?name=dune")
		if err != nil {
			t.Errorf("Get 1: %v", err)
			return
		}
		cold := fx.sim.Now().Sub(start)
		if !bytes.Equal(body, obj.Body()) {
			t.Error("delegated body corrupted")
		}
		if fx.ap.Snapshot().Delegations != 1 {
			t.Errorf("Delegations = %d, want 1", fx.ap.Snapshot().Delegations)
		}

		// Second fetch (after flag TTL expires so a fresh lookup runs):
		// Cache-Hit from the AP, no edge involvement.
		fx.sim.Sleep(2 * time.Second)
		edgeHitsBefore := fx.edgeLookups()
		start = fx.sim.Now()
		body, err = c.Get("http://api.movie.example/id?name=dune")
		if err != nil {
			t.Errorf("Get 2: %v", err)
			return
		}
		warm := fx.sim.Now().Sub(start)
		if !bytes.Equal(body, obj.Body()) {
			t.Error("cached body corrupted")
		}
		if fx.edgeLookups() != edgeHitsBefore {
			t.Error("warm fetch touched the edge")
		}
		if warm >= cold {
			t.Errorf("warm (%v) not faster than cold (%v)", warm, cold)
		}
		if got := c.Stats().Hits.All.Hits(); got != 1 {
			t.Errorf("recorded hits = %d, want 1", got)
		}
	})
}

func TestDummyIPShortCircuit(t *testing.T) {
	catalog := movieCatalog()
	runFixture(t, catalog, 5<<20, func(fx *fixture) {
		c := fx.newClient(movieRegistry())
		// Cache both domain objects.
		for _, u := range []string{"http://api.movie.example/id", "http://api.movie.example/thumb"} {
			if _, err := c.Get(u); err != nil {
				t.Errorf("warm-up Get(%s): %v", u, err)
				return
			}
		}
		fx.sim.Sleep(2 * time.Second)

		// The domain is now fully cached: the DNS-Cache lookup must not
		// touch upstream DNS and complete in one client<->AP round trip.
		hitsBefore, missesBefore := fx.ap.Forwarder().CacheStats()
		start := fx.sim.Now()
		flags, ip, err := c.lookup("api.movie.example", 0)
		if err != nil {
			t.Errorf("lookup: %v", err)
			return
		}
		elapsed := fx.sim.Now().Sub(start)
		if ip != dnswire.DummyIP {
			t.Errorf("short-circuit IP = %v, want dummy %v", ip, dnswire.DummyIP)
		}
		if hits, misses := fx.ap.Forwarder().CacheStats(); hits+misses != hitsBefore+missesBefore {
			t.Error("short-circuited lookup still consulted the forwarder")
		}
		if elapsed != 3*time.Millisecond {
			t.Errorf("short-circuit lookup took %v, want 3ms (one WiFi RTT)", elapsed)
		}
		for _, f := range flags {
			if f.Flag != dnswire.FlagCacheHit {
				t.Errorf("flag = %v, want Cache-Hit", f.Flag)
			}
		}
	})
}

func TestBlocklistedObjectGoesToEdge(t *testing.T) {
	big := &objstore.Object{URL: "http://api.video.example/clip", App: "video", Size: 600 << 10,
		TTL: 30 * time.Minute, Priority: 1, OriginDelay: 10 * time.Millisecond}
	catalog := objstore.NewCatalog(big)
	runFixture(t, catalog, 5<<20, func(fx *fixture) {
		reg := NewRegistry("video")
		_ = reg.Register(Cacheable{ID: big.URL, Priority: 1, TTL: 30 * time.Minute})
		c := fx.newClient(reg)

		// First fetch: delegated; the AP relays but block-lists (>500 KB).
		body, err := c.Get(big.URL)
		if err != nil {
			t.Errorf("Get 1: %v", err)
			return
		}
		if len(body) != big.Size {
			t.Errorf("body size = %d, want %d", len(body), big.Size)
		}
		if !fx.ap.Store().Blocked(big.URL) {
			t.Error("oversized object not block-listed")
		}

		// Second fetch: flag is Cache-Miss; the client must go straight
		// to the edge using the piggybacked resolution.
		fx.sim.Sleep(2 * time.Second)
		delegationsBefore := fx.ap.Snapshot().Delegations
		body, err = c.Get(big.URL)
		if err != nil {
			t.Errorf("Get 2: %v", err)
			return
		}
		if len(body) != big.Size {
			t.Errorf("second body size = %d", len(body))
		}
		if fx.ap.Snapshot().Delegations != delegationsBefore {
			t.Error("Cache-Miss fetch was delegated instead of going to the edge")
		}
	})
}

func TestTTLExpiryTriggersRedelegation(t *testing.T) {
	obj := &objstore.Object{URL: "http://api.app.example/x", App: "app", Size: 1024,
		TTL: time.Minute, Priority: 1, OriginDelay: 5 * time.Millisecond}
	catalog := objstore.NewCatalog(obj)
	runFixture(t, catalog, 5<<20, func(fx *fixture) {
		reg := NewRegistry("app")
		_ = reg.Register(Cacheable{ID: obj.URL, Priority: 1, TTL: time.Minute})
		c := fx.newClient(reg)

		if _, err := c.Get(obj.URL); err != nil {
			t.Errorf("Get 1: %v", err)
			return
		}
		fx.sim.Sleep(2 * time.Minute) // beyond object TTL
		if _, err := c.Get(obj.URL); err != nil {
			t.Errorf("Get 2: %v", err)
			return
		}
		if fx.ap.Snapshot().Delegations != 2 {
			t.Errorf("Delegations = %d, want 2 (expired entry re-delegated)", fx.ap.Snapshot().Delegations)
		}
	})
}

func TestUnregisteredURLUsesPlainPath(t *testing.T) {
	obj := &objstore.Object{URL: "http://plain.example/data", App: "plain", Size: 2048,
		TTL: 30 * time.Minute, Priority: 1, OriginDelay: 5 * time.Millisecond}
	catalog := objstore.NewCatalog(obj)
	runFixture(t, catalog, 5<<20, func(fx *fixture) {
		c := fx.newClient(NewRegistry("plain")) // empty registry
		body, err := c.Get(obj.URL)
		if err != nil {
			t.Errorf("Get: %v", err)
			return
		}
		if !bytes.Equal(body, obj.Body()) {
			t.Error("plain body corrupted")
		}
		if fx.ap.Snapshot().Delegations != 0 {
			t.Error("unregistered URL should never delegate")
		}
		if fx.ap.Store().Len() != 0 {
			t.Error("unregistered URL should not populate the AP cache")
		}
	})
}

func TestLookupLatencyPiggybackVsTwoQueries(t *testing.T) {
	// The integrated DNS-Cache query must beat a standalone cache query
	// after a regular DNS query by about one client<->AP round trip.
	catalog := movieCatalog()
	runFixture(t, catalog, 5<<20, func(fx *fixture) {
		c := fx.newClient(movieRegistry())
		// Warm the AP's DNS cache so both measurements compare pure
		// lookup mechanics rather than upstream resolution.
		if _, _, err := c.lookup("api.movie.example", 0); err != nil {
			t.Errorf("warm-up lookup: %v", err)
			return
		}
		fx.sim.Sleep(2 * time.Second) // expire the client's flag cache

		start := fx.sim.Now()
		if _, _, err := c.lookup("api.movie.example", 0); err != nil {
			t.Errorf("lookup: %v", err)
			return
		}
		integrated := fx.sim.Now().Sub(start)

		// Two standalone queries: a plain DNS query plus a separate
		// cache-status query — each costs a client<->AP RTT plus any
		// upstream work; here DNS is now cached on the AP, so each costs
		// exactly one RTT.
		fx.sim.Sleep(2 * time.Second)
		start = fx.sim.Now()
		q1 := dnswire.NewQuery(100, "api.movie.example", dnswire.TypeA)
		if _, err := dnsd.Query(fx.net.Node("client"), fx.ap.DNSAddr(), q1, 0); err != nil {
			t.Errorf("plain query: %v", err)
			return
		}
		q2 := dnswire.NewQuery(101, "api.movie.example", dnswire.TypeA)
		q2.Additional = append(q2.Additional, dnswire.NewCacheRR("api.movie.example", dnswire.ClassCacheRequest, nil))
		if _, err := dnsd.Query(fx.net.Node("client"), fx.ap.DNSAddr(), q2, 0); err != nil {
			t.Errorf("cache query: %v", err)
			return
		}
		twoQueries := fx.sim.Now().Sub(start)

		if twoQueries <= integrated {
			t.Errorf("two standalone queries (%v) should exceed the integrated query (%v)", twoQueries, integrated)
		}
	})
}
