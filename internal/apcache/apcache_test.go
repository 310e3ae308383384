package apcache

import (
	"bytes"
	"math/rand"
	"net/url"
	"testing"
	"time"

	"apecache/internal/cachepolicy"
	"apecache/internal/dnsd"
	"apecache/internal/dnswire"
	"apecache/internal/httplite"
	"apecache/internal/objstore"
	"apecache/internal/simnet"
	"apecache/internal/transport"
	"apecache/internal/vclock"
)

// sink records resource accounting events.
type sink struct {
	ops map[OpKind]int
}

func (s *sink) Account(op OpKind, _ int) {
	if s.ops == nil {
		s.ops = make(map[OpKind]int)
	}
	s.ops[op]++
}

// fixture wires an AP to an authoritative upstream and a warm edge.
type fixture struct {
	sim  *vclock.Sim
	net  *simnet.Network
	ap   *AP
	sink *sink
	obj  *objstore.Object
	big  *objstore.Object
}

func newFixture(t *testing.T, sim *vclock.Sim) *fixture {
	t.Helper()
	net := simnet.New(sim, 3)
	net.SetLink("client", "ap", simnet.Path{Latency: time.Millisecond})
	net.SetLink("ap", "ldns", simnet.Path{Latency: 5 * time.Millisecond})
	net.SetLink("ap", "edge", simnet.Path{Latency: 10 * time.Millisecond})
	net.SetLink("edge", "origin", simnet.Path{Latency: 20 * time.Millisecond})

	obj := &objstore.Object{URL: "http://api.t.example/small", App: "t", Size: 4 << 10,
		TTL: 30 * time.Minute, Priority: 2, OriginDelay: 10 * time.Millisecond}
	big := &objstore.Object{URL: "http://api.t.example/huge", App: "t", Size: 600 << 10,
		TTL: 30 * time.Minute, Priority: 1, OriginDelay: 10 * time.Millisecond}
	catalog := objstore.NewCatalog(obj, big)

	origin := objstore.NewOriginServer(sim, catalog)
	if _, err := origin.Run(net.Node("origin"), 80); err != nil {
		t.Fatalf("origin: %v", err)
	}
	edge := objstore.NewEdgeCacheServer(sim, net.Node("edge"), catalog, transport.Addr{Host: "origin", Port: 80})
	edge.Prepopulate()
	if _, err := edge.Run(net.Node("edge"), 80); err != nil {
		t.Fatalf("edge: %v", err)
	}

	// Upstream: an authoritative answering the domain directly.
	auth := dnsd.NewAuthoritative(sim)
	auth.Add(dnswire.NewA("api.t.example", 300, dnswire.IPv4{10, 0, 0, 9}))
	pc, err := net.Node("ldns").ListenPacket(53)
	if err != nil {
		t.Fatalf("ldns: %v", err)
	}
	sim.Go("dns.ldns", func() { dnsd.Serve(sim, pc, auth) })

	sk := &sink{}
	ap := New(Config{
		Env:           sim,
		Host:          net.Node("ap"),
		Upstream:      transport.Addr{Host: "ldns", Port: 53},
		EdgeAddr:      transport.Addr{Host: "edge", Port: 80},
		CacheCapacity: 5 << 20,
		Policy:        cachepolicy.NewPACM(),
		Rng:           rand.New(rand.NewSource(4)),
		Resources:     sk,
	})
	if err := ap.Start(); err != nil {
		t.Fatalf("ap.Start: %v", err)
	}
	return &fixture{sim: sim, net: net, ap: ap, sink: sk, obj: obj, big: big}
}

func run(t *testing.T, fn func(fx *fixture)) {
	t.Helper()
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() { fn(newFixture(t, sim)) })
	sim.Shutdown()
	sim.Wait()
	if err := sim.Err(); err != nil {
		t.Fatal(err)
	}
}

// delegate performs a delegation request from the client node.
func delegate(t *testing.T, fx *fixture, obj *objstore.Object) *httplite.Response {
	t.Helper()
	c := httplite.NewClient(fx.net.Node("client"))
	req := httplite.NewRequest("POST", "ap", "/delegate")
	req.Body = []byte(obj.URL)
	req.Set("X-Ape-TTL", "30")
	req.Set("X-Ape-Priority", "2")
	req.Set("X-Ape-App", obj.App)
	resp, err := c.Do(fx.ap.HTTPAddr(), req)
	if err != nil {
		t.Fatalf("delegate: %v", err)
	}
	return resp
}

// cacheQuery sends a DNS-Cache query for the object's domain.
func cacheQuery(t *testing.T, fx *fixture, hashes ...uint64) *dnswire.Message {
	t.Helper()
	entries := make([]dnswire.CacheEntry, len(hashes))
	for i, h := range hashes {
		entries[i] = dnswire.CacheEntry{Hash: h}
	}
	q := dnswire.NewQuery(99, "api.t.example", dnswire.TypeA)
	q.Additional = append(q.Additional, dnswire.NewCacheRR("api.t.example", dnswire.ClassCacheRequest, entries))
	resp, err := dnsd.Query(fx.net.Node("client"), fx.ap.DNSAddr(), q, 0)
	if err != nil {
		t.Fatalf("cacheQuery: %v", err)
	}
	return resp
}

func flagsOf(t *testing.T, resp *dnswire.Message) map[uint64]dnswire.CacheFlag {
	t.Helper()
	rr, ok := resp.FindCacheRR(dnswire.ClassCacheResponse)
	if !ok {
		t.Fatal("no DNS-Cache response RR")
	}
	entries, err := dnswire.ParseCacheRR(rr)
	if err != nil {
		t.Fatalf("ParseCacheRR: %v", err)
	}
	out := make(map[uint64]dnswire.CacheFlag, len(entries))
	for _, e := range entries {
		out[e.Hash] = e.Flag
	}
	return out
}

func TestDNSCacheQueryUnknownHashIsDelegationWithDummyIP(t *testing.T) {
	run(t, func(fx *fixture) {
		resp := cacheQuery(t, fx, fx.obj.Hash())
		flags := flagsOf(t, resp)
		if flags[fx.obj.Hash()] != dnswire.FlagDelegation {
			t.Errorf("flag = %v, want Delegation", flags[fx.obj.Hash()])
		}
		ip, ok := resp.AnswerA()
		if !ok || ip != dnswire.DummyIP {
			t.Errorf("answer = %v, want dummy IP (nothing block-listed)", ip)
		}
		if fx.sink.ops[OpDNSCacheQuery] != 1 {
			t.Errorf("OpDNSCacheQuery accounted %d times", fx.sink.ops[OpDNSCacheQuery])
		}
	})
}

func TestDelegationCachesAndServes(t *testing.T) {
	run(t, func(fx *fixture) {
		resp := delegate(t, fx, fx.obj)
		if resp.Status != 200 || !bytes.Equal(resp.Body, fx.obj.Body()) {
			t.Errorf("delegation resp status=%d len=%d", resp.Status, len(resp.Body))
			return
		}
		if resp.Get("X-Ape-Source") != "ap-delegate" {
			t.Errorf("source = %q", resp.Get("X-Ape-Source"))
		}
		// Now flagged as a hit.
		flags := flagsOf(t, cacheQuery(t, fx, fx.obj.Hash()))
		if flags[fx.obj.Hash()] != dnswire.FlagCacheHit {
			t.Errorf("flag after delegation = %v, want Cache-Hit", flags[fx.obj.Hash()])
		}
		// And fetchable via /cache.
		c := httplite.NewClient(fx.net.Node("client"))
		got, err := c.Get(fx.ap.HTTPAddr(), "ap", "/cache?u="+url.QueryEscape(fx.obj.URL)+"&app=t")
		if err != nil || got.Status != 200 || !bytes.Equal(got.Body, fx.obj.Body()) {
			t.Errorf("cache get: %v status=%d", err, got.Status)
		}
		if got.Get("X-Ape-Source") != "ap-cache" {
			t.Errorf("source = %q", got.Get("X-Ape-Source"))
		}
		if fx.sink.ops[OpDelegation] != 1 || fx.sink.ops[OpCacheServe] != 1 || fx.sink.ops[OpPACMRun] != 1 {
			t.Errorf("accounting = %v", fx.sink.ops)
		}
	})
}

func TestOversizedDelegationRelaysButBlocklists(t *testing.T) {
	run(t, func(fx *fixture) {
		resp := delegate(t, fx, fx.big)
		if resp.Status != 200 || len(resp.Body) != fx.big.Size {
			t.Errorf("oversized delegation status=%d len=%d", resp.Status, len(resp.Body))
			return
		}
		// Block-listed: flag = Cache-Miss, and the DNS answer must now
		// carry a real upstream resolution, not the dummy IP.
		resp2 := cacheQuery(t, fx, fx.big.Hash())
		flags := flagsOf(t, resp2)
		if flags[fx.big.Hash()] != dnswire.FlagCacheMiss {
			t.Errorf("flag = %v, want Cache-Miss", flags[fx.big.Hash()])
		}
		ip, ok := resp2.AnswerA()
		if !ok || ip != (dnswire.IPv4{10, 0, 0, 9}) {
			t.Errorf("answer = %v, want the upstream-resolved IP", ip)
		}
	})
}

func TestBatchedFlagsCoverWholeDomain(t *testing.T) {
	run(t, func(fx *fixture) {
		delegate(t, fx, fx.obj)
		// Ask only about big; the response must also carry small's flag.
		flags := flagsOf(t, cacheQuery(t, fx, fx.big.Hash()))
		if _, ok := flags[fx.obj.Hash()]; !ok {
			t.Error("batched response missing the domain's other URL")
		}
		if flags[fx.obj.Hash()] != dnswire.FlagCacheHit {
			t.Errorf("batched flag = %v, want Cache-Hit", flags[fx.obj.Hash()])
		}
	})
}

// TestDNSCacheResponseEntrySet pins the entry set of a DNS-Cache response
// (its count fixes the datagram length): the domain's known URLs plus the
// requested hashes beyond them, each exactly once even when the request
// repeats a hash, and the known URLs alone when the request RR is
// malformed.
func TestDNSCacheResponseEntrySet(t *testing.T) {
	run(t, func(fx *fixture) {
		delegate(t, fx, fx.obj)
		const unknown = 0xDEADBEEF
		entriesOf := func(resp *dnswire.Message) []dnswire.CacheEntry {
			rr, _ := resp.FindCacheRR(dnswire.ClassCacheResponse)
			entries, err := dnswire.ParseCacheRR(rr)
			if err != nil {
				t.Errorf("ParseCacheRR: %v", err)
			}
			return entries
		}

		resp := cacheQuery(t, fx, unknown, fx.obj.Hash(), unknown)
		got := entriesOf(resp)
		flags := flagsOf(t, resp)
		if len(got) != 2 || flags[fx.obj.Hash()] != dnswire.FlagCacheHit || flags[unknown] != dnswire.FlagDelegation {
			t.Errorf("entries = %v, want the cached URL as Cache-Hit and the unknown hash as Delegation, once each", got)
		}

		q := dnswire.NewQuery(98, "api.t.example", dnswire.TypeA)
		rr := dnswire.NewCacheRR("api.t.example", dnswire.ClassCacheRequest, []dnswire.CacheEntry{{Hash: unknown}})
		rr.Data = rr.Data[:len(rr.Data)-1]
		q.Additional = append(q.Additional, rr)
		resp = fx.ap.HandleDNS(transport.Addr{Host: "client", Port: 9}, q)
		if got := entriesOf(resp); len(got) != 1 || got[0] != (dnswire.CacheEntry{Hash: fx.obj.Hash(), Flag: dnswire.FlagCacheHit}) {
			t.Errorf("malformed request: entries = %v, want only the domain's known URL", got)
		}
		if ip, ok := resp.AnswerA(); !ok || ip != dnswire.DummyIP {
			t.Errorf("malformed request: answer = %v, want the dummy IP", ip)
		}
	})
}

func TestPlainDNSQueryForwardsUpstream(t *testing.T) {
	run(t, func(fx *fixture) {
		q := dnswire.NewQuery(7, "api.t.example", dnswire.TypeA)
		resp, err := dnsd.Query(fx.net.Node("client"), fx.ap.DNSAddr(), q, 0)
		if err != nil {
			t.Errorf("plain query: %v", err)
			return
		}
		ip, ok := resp.AnswerA()
		if !ok || ip != (dnswire.IPv4{10, 0, 0, 9}) {
			t.Errorf("answer = %v, %v", ip, ok)
		}
		if fx.sink.ops[OpDNSQuery] != 1 {
			t.Errorf("OpDNSQuery accounted %d times", fx.sink.ops[OpDNSQuery])
		}
	})
}

func TestCacheGetMissingObjectIs404(t *testing.T) {
	run(t, func(fx *fixture) {
		c := httplite.NewClient(fx.net.Node("client"))
		resp, err := c.Get(fx.ap.HTTPAddr(), "ap", "/cache?u="+url.QueryEscape("http://api.t.example/ghost"))
		if err != nil || resp.Status != 404 {
			t.Errorf("resp = %v, %v; want 404", resp, err)
		}
	})
}

func TestBadRequestsGet400(t *testing.T) {
	run(t, func(fx *fixture) {
		c := httplite.NewClient(fx.net.Node("client"))
		if resp, err := c.Get(fx.ap.HTTPAddr(), "ap", "/cache"); err != nil || resp.Status != 400 {
			t.Errorf("missing u: %v %v", resp, err)
		}
		req := httplite.NewRequest("POST", "ap", "/delegate")
		if resp, err := c.Do(fx.ap.HTTPAddr(), req); err != nil || resp.Status != 400 {
			t.Errorf("empty delegate body: %v %v", resp, err)
		}
	})
}

func TestDelegationForUnknownObjectPropagates404(t *testing.T) {
	run(t, func(fx *fixture) {
		ghost := &objstore.Object{URL: "http://api.t.example/ghost", App: "t", Size: 1,
			TTL: time.Minute, Priority: 1}
		resp := delegate(t, fx, ghost)
		if resp.Status != 404 {
			t.Errorf("status = %d, want 404 passed through from the edge", resp.Status)
		}
	})
}

func TestStopClosesListeners(t *testing.T) {
	run(t, func(fx *fixture) {
		fx.ap.Stop()
		c := httplite.NewClient(fx.net.Node("client"))
		if _, err := c.Get(fx.ap.HTTPAddr(), "ap", "/cache?u=x"); err == nil {
			t.Error("HTTP still reachable after Stop")
		}
	})
}

func TestStatusEndpointReportsRuntime(t *testing.T) {
	run(t, func(fx *fixture) {
		delegate(t, fx, fx.obj)
		fx.sim.Sleep(30 * time.Second)
		c := httplite.NewClient(fx.net.Node("client"))
		resp, err := c.Get(fx.ap.HTTPAddr(), "ap", "/status")
		if err != nil || resp.Status != 200 {
			t.Errorf("status: %v %d", err, resp.Status)
			return
		}
		s := fx.ap.Snapshot()
		if s.Entries != 1 || s.Delegations != 1 || s.Insertions != 1 {
			t.Errorf("snapshot = %+v", s)
		}
		if s.CacheUsedBytes != int64(fx.obj.Size) {
			t.Errorf("used = %d, want %d", s.CacheUsedBytes, fx.obj.Size)
		}
		if s.Policy != "PACM" {
			t.Errorf("policy = %q", s.Policy)
		}
		if s.UptimeSec < 30 {
			t.Errorf("uptime = %ds", s.UptimeSec)
		}
		// The endpoint body is valid JSON mirroring the snapshot.
		if want := "\"delegations\": 1"; !bytes.Contains(resp.Body, []byte(want)) {
			t.Errorf("status body missing %q: %s", want, resp.Body)
		}
	})
}

func TestBackgroundSweeperEvictsExpired(t *testing.T) {
	run(t, func(fx *fixture) {
		delegate(t, fx, fx.obj) // TTL 30 minutes
		if fx.ap.Store().Len() != 1 {
			t.Fatal("object not cached")
		}
		// Go far past the TTL without any cache activity: the background
		// sweeper alone must reclaim the entry.
		fx.sim.Sleep(40 * time.Minute)
		if fx.ap.Store().Len() != 0 {
			t.Errorf("expired entry still resident after sweep (len=%d)", fx.ap.Store().Len())
		}
		if fx.ap.Store().Used() != 0 {
			t.Errorf("used = %d after sweep", fx.ap.Store().Used())
		}
	})
}

func TestExpiredEntryFlagsDelegationAgain(t *testing.T) {
	run(t, func(fx *fixture) {
		delegate(t, fx, fx.obj)
		fx.sim.Sleep(31 * time.Minute)
		flags := flagsOf(t, cacheQuery(t, fx, fx.obj.Hash()))
		if flags[fx.obj.Hash()] != dnswire.FlagDelegation {
			t.Errorf("flag after TTL = %v, want Delegation", flags[fx.obj.Hash()])
		}
	})
}
