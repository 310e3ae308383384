package apcache

import (
	"bytes"
	"math/rand"
	"net/url"
	"sync"
	"testing"
	"time"

	"apecache/internal/cachepolicy"
	"apecache/internal/coherence"
	"apecache/internal/dnswire"
	"apecache/internal/httplite"
	"apecache/internal/objstore"
	"apecache/internal/simnet"
	"apecache/internal/telemetry"
	"apecache/internal/transport"
	"apecache/internal/vclock"
)

// cohFixture wires origin -- edge+hub -- AP with a coherence mode.
type cohFixture struct {
	sim     *vclock.Sim
	net     *simnet.Network
	ap      *AP
	catalog *objstore.Catalog
	edge    *objstore.EdgeCacheServer
	edgeTel *telemetry.Telemetry
	hub     *coherence.Hub
	obj     *objstore.Object
	hubAddr transport.Addr
}

func newCohFixture(t *testing.T, sim *vclock.Sim, mode coherence.Mode) *cohFixture {
	t.Helper()
	net := simnet.New(sim, 3)
	net.SetLink("client", "ap", simnet.Path{Latency: time.Millisecond})
	net.SetLink("ap", "edge", simnet.Path{Latency: 10 * time.Millisecond})
	net.SetLink("edge", "origin", simnet.Path{Latency: 20 * time.Millisecond})
	net.SetLink("publisher", "edge", simnet.Path{Latency: time.Millisecond})

	obj := &objstore.Object{URL: "http://api.t.example/item", App: "t", Size: 4 << 10,
		TTL: 30 * time.Minute, Priority: 2, OriginDelay: 10 * time.Millisecond}
	catalog := objstore.NewCatalog(obj)

	origin := objstore.NewOriginServer(sim, catalog)
	if _, err := origin.Run(net.Node("origin"), 80); err != nil {
		t.Fatalf("origin: %v", err)
	}
	edge := objstore.NewEdgeCacheServer(sim, net.Node("edge"), catalog, transport.Addr{Host: "origin", Port: 80})
	edgeTel := telemetry.New(sim)
	edge.Instrument(edgeTel)
	edge.Prepopulate()
	hub := coherence.NewHub(sim, net.Node("edge"), func(m coherence.Msg) { edge.Invalidate(m.URL) })
	l, err := net.Node("edge").Listen(80)
	if err != nil {
		t.Fatalf("edge listen: %v", err)
	}
	srv := httplite.NewServer(sim, hub.Wrap(edge))
	sim.Go("edge.server", func() { srv.Serve(l) })

	ap := New(Config{
		Env:           sim,
		Host:          net.Node("ap"),
		Upstream:      transport.Addr{Host: "edge", Port: 53}, // unused: no plain DNS in these tests
		EdgeAddr:      transport.Addr{Host: "edge", Port: 80},
		CacheCapacity: 5 << 20,
		Policy:        cachepolicy.NewPACM(),
		Rng:           rand.New(rand.NewSource(4)),
		Coherence:     mode,
		// The decision ledger rides along so every coherence-path test
		// also exercises purge/stale/revalidate event recording.
		DecisionLog: true,
	})
	if err := ap.Start(); err != nil {
		t.Fatalf("ap.Start: %v", err)
	}
	return &cohFixture{sim: sim, net: net, ap: ap, catalog: catalog, edge: edge, edgeTel: edgeTel,
		hub: hub, obj: obj, hubAddr: transport.Addr{Host: "edge", Port: 80}}
}

// edgeLookups reads the edge's cache hits plus misses off its registry.
func (fx *cohFixture) edgeLookups() float64 {
	m := fx.edgeTel.Metrics.Expand()
	return m[`edge_cache_lookups_total{result="hit"}`] + m[`edge_cache_lookups_total{result="miss"}`]
}

func runCoh(t *testing.T, mode coherence.Mode, fn func(fx *cohFixture)) {
	t.Helper()
	if err := vclock.Simulate("main", func(sim *vclock.Sim) error {
		fn(newCohFixture(t, sim, mode))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// cohDelegate delegates fx.obj from the client node.
func cohDelegate(t *testing.T, fx *cohFixture) *httplite.Response {
	t.Helper()
	c := httplite.NewClient(fx.net.Node("client"))
	req := httplite.NewRequest("POST", "ap", "/delegate")
	req.Body = []byte(fx.obj.URL)
	req.Set("X-Ape-TTL", "30")
	req.Set("X-Ape-Priority", "2")
	req.Set("X-Ape-App", fx.obj.App)
	resp, err := c.Do(fx.ap.HTTPAddr(), req)
	if err != nil {
		t.Fatalf("delegate: %v", err)
	}
	return resp
}

// cohCacheGet fetches fx.obj from the AP cache endpoint.
func cohCacheGet(t *testing.T, fx *cohFixture) *httplite.Response {
	t.Helper()
	c := httplite.NewClient(fx.net.Node("client"))
	resp, err := c.Get(fx.ap.HTTPAddr(), "ap", "/cache?u="+url.QueryEscape(fx.obj.URL)+"&app=t")
	if err != nil {
		t.Fatalf("cache get: %v", err)
	}
	return resp
}

// mutateAndPublish bumps the catalog version and publishes the purge from
// the origin node, as the origin server would.
func mutateAndPublish(t *testing.T, fx *cohFixture, gone bool) coherence.Msg {
	t.Helper()
	msg := coherence.Msg{URL: fx.obj.URL, Gone: gone}
	if gone {
		v, ok := fx.catalog.Remove(fx.obj.URL)
		if !ok {
			t.Fatal("Remove missed object")
		}
		msg.Version = v + 1
	} else {
		v, ok := fx.catalog.Mutate(fx.obj.URL)
		if !ok {
			t.Fatal("Mutate missed object")
		}
		msg.Version = v
	}
	pub := httplite.NewClient(fx.net.Node("origin"))
	if err := coherence.Publish(pub, fx.hubAddr, msg); err != nil {
		t.Fatalf("publish: %v", err)
	}
	return msg
}

func TestSWRStaleServeThenBackgroundRefresh(t *testing.T) {
	runCoh(t, coherence.ModeSWR, func(fx *cohFixture) {
		v0 := fx.obj.Body()
		if resp := cohDelegate(t, fx); !bytes.Equal(resp.Body, v0) {
			t.Fatal("delegation body mismatch")
		}
		if got := fx.ap.Store().Flag(fx.obj.URL); got != dnswire.FlagCacheHit {
			t.Fatalf("pre-purge flag = %v", got)
		}

		mutateAndPublish(t, fx, false)
		v1 := fx.obj.Body()
		// 25 ms: the relayed purge has arrived (edge->ap link is 10 ms) but
		// the background revalidation (40+ ms round trip to the edge) has
		// not finished — the stale window is open.
		fx.sim.Sleep(25 * time.Millisecond)
		if got := fx.ap.Store().Flag(fx.obj.URL); got != dnswire.FlagStale {
			t.Fatalf("post-purge flag = %v, want Stale", got)
		}
		resp := cohCacheGet(t, fx)
		if resp.Status != 200 || !bytes.Equal(resp.Body, v0) {
			t.Fatalf("stale serve = %d (%d bytes), want v0 200", resp.Status, len(resp.Body))
		}
		if resp.Get("X-Ape-Source") != "ap-cache-stale" || resp.Get("Warning") == "" {
			t.Errorf("stale serve not marked: source=%q warning=%q",
				resp.Get("X-Ape-Source"), resp.Get("Warning"))
		}
		// The allowance is spent: a second immediate fetch cannot get the
		// stale copy again.
		if resp := cohCacheGet(t, fx); resp.Status != 404 && !bytes.Equal(resp.Body, v1) {
			t.Errorf("second stale fetch = %d, want 404 or fresh body", resp.Status)
		}

		// After the revalidation completes the entry holds v1 bytes.
		fx.sim.Sleep(2 * time.Second)
		if got := fx.ap.Store().Flag(fx.obj.URL); got != dnswire.FlagCacheHit {
			t.Errorf("post-revalidation flag = %v, want Cache-Hit", got)
		}
		resp = cohCacheGet(t, fx)
		if resp.Status != 200 || !bytes.Equal(resp.Body, v1) {
			t.Errorf("post-revalidation body stale (status %d)", resp.Status)
		}
		snap := fx.ap.Snapshot()
		if snap.Purges != 1 || snap.StaleServes != 1 || snap.Revalidations == 0 {
			t.Errorf("counters: %+v", snap)
		}
		if snap.Coherence != "stale-while-revalidate" {
			t.Errorf("mode = %q", snap.Coherence)
		}
	})
}

// TestSWRSecondPurgeDuringRevalidation publishes v1 and then v2 a gap
// later, so for some gaps the second purge lands while the first purge's
// revalidation (or the edge fill behind it) is still in flight. Whatever
// the gap, the AP must settle on v2, fresh: neither the edge nor the AP
// may keep the v1 fill the second purge made obsolete.
func TestSWRSecondPurgeDuringRevalidation(t *testing.T) {
	var failed []int
	for gap := 0; gap <= 150; gap++ {
		runCoh(t, coherence.ModeSWR, func(fx *cohFixture) {
			cohDelegate(t, fx)
			publish := func() {
				v, _ := fx.catalog.Mutate(fx.obj.URL)
				pub := httplite.NewClient(fx.net.Node("publisher"))
				if err := coherence.Publish(pub, fx.hubAddr, coherence.Msg{URL: fx.obj.URL, Version: v}); err != nil {
					t.Errorf("publish v%d: %v", v, err)
				}
			}
			fx.sim.Go("publish.v1", publish)
			fx.sim.Sleep(time.Duration(gap) * time.Millisecond)
			publish()
			fx.sim.Sleep(2 * time.Second)
			e, ok := fx.ap.Store().Peek(fx.obj.URL)
			if fx.ap.Store().Flag(fx.obj.URL) != dnswire.FlagCacheHit || !ok || !bytes.Equal(e.Data, fx.obj.Body()) {
				failed = append(failed, gap)
			}
		})
	}
	if len(failed) > 0 {
		t.Errorf("AP copy not fresh v2 after gaps (ms) %v", failed)
	}
}

func TestInvalidateModeEvictsImmediately(t *testing.T) {
	runCoh(t, coherence.ModeInvalidate, func(fx *cohFixture) {
		cohDelegate(t, fx)
		mutateAndPublish(t, fx, false)
		fx.sim.Sleep(25 * time.Millisecond)
		if got := fx.ap.Store().Flag(fx.obj.URL); got != dnswire.FlagDelegation {
			t.Fatalf("post-purge flag = %v, want Delegation", got)
		}
		if resp := cohCacheGet(t, fx); resp.Status != 404 {
			t.Errorf("purged cache get = %d, want 404", resp.Status)
		}
		// The next delegation brings in the new version (the hub purged the
		// edge before relaying, so no stale bytes can come back).
		if resp := cohDelegate(t, fx); !bytes.Equal(resp.Body, fx.obj.Body()) {
			t.Error("re-delegation returned stale bytes")
		}
		if e, ok := fx.ap.Store().Get(fx.obj.URL); !ok || e.Version != 1 {
			t.Errorf("re-cached entry = %+v, %v", e, ok)
		}
	})
}

// A prefetch fill carries the edge's version like a delegation fill: once
// a purge has raised the store's high-water mark for a URL, a hinted
// prefetch of the new version must still be admitted.
func TestPrefetchAfterPurgeAdmitsNewVersion(t *testing.T) {
	runCoh(t, coherence.ModeInvalidate, func(fx *cohFixture) {
		trigger := &objstore.Object{URL: "http://api.t.example/trigger", App: "t", Size: 1 << 10,
			TTL: 30 * time.Minute, Priority: 2, OriginDelay: 10 * time.Millisecond}
		fx.catalog.Add(trigger)
		if _, ok := fx.catalog.Mutate(fx.obj.URL); !ok {
			t.Fatal("Mutate missed object")
		}
		if msg := mutateAndPublish(t, fx, false); msg.Version != 2 {
			t.Fatalf("purge version = %d, want 2", msg.Version)
		}
		fx.sim.Sleep(25 * time.Millisecond)

		c := httplite.NewClient(fx.net.Node("client"))
		req := httplite.NewRequest("POST", "ap", "/delegate")
		req.Body = []byte(trigger.URL)
		req.Set("X-Ape-App", "t")
		req.Set("X-Ape-Prefetch", fx.obj.URL+";ttl=30;priority=2")
		if resp, err := c.Do(fx.ap.HTTPAddr(), req); err != nil || resp.Status != 200 {
			t.Fatalf("delegate: %v", err)
		}
		fx.sim.Sleep(time.Second)
		if e, ok := fx.ap.Store().Get(fx.obj.URL); !ok || e.Version != 2 {
			t.Errorf("prefetched entry = %+v, %v; want resident at version 2", e, ok)
		}
	})
}

func TestGonePurgeAnswers410UntilWindowExpires(t *testing.T) {
	runCoh(t, coherence.ModeInvalidate, func(fx *cohFixture) {
		cohDelegate(t, fx)
		mutateAndPublish(t, fx, true)
		fx.sim.Sleep(25 * time.Millisecond)
		if got := fx.ap.Store().Flag(fx.obj.URL); got != dnswire.FlagCacheMiss {
			t.Fatalf("gone flag = %v, want Cache-Miss", got)
		}
		if resp := cohDelegate(t, fx); resp.Status != 410 {
			t.Errorf("gone delegation = %d, want 410", resp.Status)
		}
		// Outside the window delegation reaches the edge again — and now
		// honestly 404s, since the catalog no longer has the object.
		fx.sim.Sleep(cachepolicy.DefaultNegativeTTL + time.Second)
		if resp := cohDelegate(t, fx); resp.Status != 404 {
			t.Errorf("post-window delegation = %d, want 404", resp.Status)
		}
	})
}

func TestConcurrentDelegationsCoalesce(t *testing.T) {
	runCoh(t, coherence.ModeOff, func(fx *cohFixture) {
		const clients = 4
		var mu sync.Mutex
		bodies := 0
		for i := 0; i < clients; i++ {
			fx.sim.Go("test.client", func() {
				c := httplite.NewClient(fx.net.Node("client"))
				req := httplite.NewRequest("POST", "ap", "/delegate")
				req.Body = []byte(fx.obj.URL)
				req.Set("X-Ape-TTL", "30")
				req.Set("X-Ape-Priority", "2")
				req.Set("X-Ape-App", "t")
				resp, err := c.Do(fx.ap.HTTPAddr(), req)
				if err != nil || resp.Status != 200 || !bytes.Equal(resp.Body, fx.obj.Body()) {
					t.Errorf("concurrent delegate: %v %v", resp, err)
					return
				}
				mu.Lock()
				bodies++
				mu.Unlock()
			})
		}
		fx.sim.Sleep(5 * time.Second)
		mu.Lock()
		done := bodies
		mu.Unlock()
		if done != clients {
			t.Fatalf("only %d/%d clients served", done, clients)
		}
		delegations := fx.ap.Snapshot().Delegations
		if delegations != 1 {
			t.Errorf("edge fetches = %d, want 1 (singleflight)", delegations)
		}
		if n := fx.edgeLookups(); n != 1 {
			t.Errorf("edge saw %v requests, want 1", n)
		}
	})
}

// TestSweeperHonorsConfiguredInterval pins the sweep period to
// DefaultSweepInterval on the virtual clock.
func TestSweeperHonorsConfiguredInterval(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() {
		net := simnet.New(sim, 1)
		ap := New(Config{
			Env:           sim,
			Host:          net.Node("ap"),
			CacheCapacity: 1 << 20,
			Policy:        cachepolicy.NewPACM(),
			Rng:           rand.New(rand.NewSource(1)),
		})
		if err := ap.Start(); err != nil {
			t.Fatalf("ap.Start: %v", err)
		}
		o := &objstore.Object{URL: "http://a.example/x", App: "a", Size: 64, TTL: time.Second, Priority: 2}
		if err := ap.Store().Put(o, o.Body(), 0); err != nil {
			t.Fatalf("Put: %v", err)
		}
		// Past the TTL but before the first sweep: the entry is lazily
		// expired yet still resident.
		sim.Sleep(DefaultSweepInterval - time.Second)
		if ap.Store().Len() != 1 {
			t.Fatalf("entry swept early: len=%d", ap.Store().Len())
		}
		// The first sweep fires at DefaultSweepInterval on the virtual
		// clock, so a second later the entry is gone — deterministically,
		// with no real time elapsed.
		sim.Sleep(2 * time.Second)
		if ap.Store().Len() != 0 {
			t.Errorf("entry not swept: len=%d", ap.Store().Len())
		}
		if st := ap.Store().Stats(); st.Expired != 1 {
			t.Errorf("Expired = %d, want 1", st.Expired)
		}
		ap.Stop()
	})
	sim.Shutdown()
	sim.Wait()
	if err := sim.Err(); err != nil {
		t.Fatal(err)
	}
}
