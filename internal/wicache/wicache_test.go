package wicache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
	"sync"
	"testing"
	"time"

	"apecache/internal/coherence"
	"apecache/internal/httplite"
	"apecache/internal/objstore"
	"apecache/internal/simnet"
	"apecache/internal/transport"
	"apecache/internal/vclock"
)

// fixture wires controller (far), AP, edge and origin.
type fixture struct {
	sim        *vclock.Sim
	net        *simnet.Network
	controller *Controller
	ap         *APServer
	edge       *objstore.EdgeCacheServer
	catalog    *objstore.Catalog
	obj        *objstore.Object
}

func newFixture(t *testing.T, sim *vclock.Sim, capacity int64, extra ...*objstore.Object) *fixture {
	t.Helper()
	net := simnet.New(sim, 8)
	net.SetLink("client", "ap", simnet.Path{Latency: time.Millisecond})
	net.SetLink("client", "ec2", simnet.Path{Latency: 11 * time.Millisecond, Hops: 12})
	net.SetLink("ap", "ec2", simnet.Path{Latency: 10 * time.Millisecond, Hops: 11})
	net.SetLink("client", "edge", simnet.Path{Latency: 14 * time.Millisecond, Hops: 7})
	net.SetLink("ap", "edge", simnet.Path{Latency: 13 * time.Millisecond, Hops: 7})
	net.SetLink("edge", "origin", simnet.Path{Latency: 20 * time.Millisecond})

	obj := &objstore.Object{URL: "http://api.w.example/chunk", App: "w", Size: 32 << 10,
		TTL: 30 * time.Minute, Priority: 2, OriginDelay: 15 * time.Millisecond}
	catalog := objstore.NewCatalog(append([]*objstore.Object{obj}, extra...)...)

	origin := objstore.NewOriginServer(sim, catalog)
	if _, err := origin.Run(net.Node("origin"), 80); err != nil {
		t.Fatalf("origin: %v", err)
	}
	edge := objstore.NewEdgeCacheServer(sim, net.Node("edge"), catalog, transport.Addr{Host: "origin", Port: 80})
	edge.Prepopulate()
	if _, err := edge.Run(net.Node("edge"), 80); err != nil {
		t.Fatalf("edge: %v", err)
	}

	controller := NewController(sim, net.Node("ec2"))
	if err := controller.Start(0); err != nil {
		t.Fatalf("controller: %v", err)
	}
	ap := NewAPServer(sim, net.Node("ap"), "ap", capacity,
		transport.Addr{Host: "edge", Port: 80}, controller.Addr())
	if err := ap.Start(0); err != nil {
		t.Fatalf("ap: %v", err)
	}
	controller.RegisterAP("ap", ap.Addr(), ap.Addr())
	return &fixture{sim: sim, net: net, controller: controller, ap: ap, edge: edge, catalog: catalog, obj: obj}
}

func run(t *testing.T, capacity int64, fn func(fx *fixture)) {
	t.Helper()
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() { fn(newFixture(t, sim, capacity)) })
	sim.Shutdown()
	sim.Wait()
	if err := sim.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestMissThenFillThenHit(t *testing.T) {
	run(t, 5<<20, func(fx *fixture) {
		client := NewClient(fx.sim, fx.net.Node("client"), "w", fx.controller.Addr(),
			transport.Addr{Host: "edge", Port: 80})
		client.Declare(fx.obj.URL, fx.obj.TTL, fx.obj.Priority)

		// First fetch: controller miss -> client goes to the edge; the
		// controller orders a background fill.
		body, err := client.Get(fx.obj.URL)
		if err != nil || !bytes.Equal(body, fx.obj.Body()) {
			t.Errorf("get1: %v (%d bytes)", err, len(body))
			return
		}
		if client.Stats().Hits.All.Hits() != 0 {
			t.Error("first fetch counted as a hit")
		}

		// Give the fill order time to complete.
		fx.sim.Sleep(2 * time.Second)
		if fx.ap.fills.Value() != 1 {
			t.Errorf("fills = %d, want 1", fx.ap.fills.Value())
		}

		// Second fetch: controller hit -> AP chunk fetch.
		start := fx.sim.Now()
		body, err = client.Get(fx.obj.URL)
		if err != nil || !bytes.Equal(body, fx.obj.Body()) {
			t.Errorf("get2: %v", err)
			return
		}
		if client.Stats().Hits.All.Hits() != 1 {
			t.Error("second fetch not counted as a hit")
		}
		// Lookup crosses to the controller (~22ms RTT); retrieval stays
		// on the WiFi hop (~2ms RTT).
		total := fx.sim.Now().Sub(start)
		if total > 40*time.Millisecond {
			t.Errorf("warm fetch took %v, want lookup+AP retrieval", total)
		}
		if mean := client.Stats().Retrieval.Mean(); mean > 10*time.Millisecond {
			t.Errorf("hit retrieval mean = %v, want WiFi-level", mean)
		}
	})
}

func TestStaleControllerLocationFallsBackToEdge(t *testing.T) {
	run(t, 5<<20, func(fx *fixture) {
		client := NewClient(fx.sim, fx.net.Node("client"), "w", fx.controller.Addr(),
			transport.Addr{Host: "edge", Port: 80})
		client.Declare(fx.obj.URL, fx.obj.TTL, fx.obj.Priority)

		// Fabricate a stale controller entry: the controller believes the
		// AP holds the object, but the AP cache is empty.
		fx.controller.locations[fx.obj.URL] = []string{"ap"}

		body, err := client.Get(fx.obj.URL)
		if err != nil || !bytes.Equal(body, fx.obj.Body()) {
			t.Errorf("get with stale location: %v", err)
			return
		}

		// Clear the fabrication and miss for real so the controller orders
		// a fill and the location becomes genuine. A purge on the bus then
		// evicts the AP copy and drops the location entry...
		delete(fx.controller.locations, fx.obj.URL)
		if _, err := client.Get(fx.obj.URL); err != nil {
			t.Errorf("refill get: %v", err)
			return
		}
		fx.sim.Sleep(2 * time.Second)
		if fx.ap.fills.Value() != 1 {
			t.Errorf("fills = %d, want 1", fx.ap.fills.Value())
			return
		}
		v0 := fx.obj.Body()
		v, ok := fx.catalog.Mutate(fx.obj.URL)
		if !ok {
			t.Error("Mutate missed object")
			return
		}
		fx.edge.Invalidate(fx.obj.URL) // what the hub's onPurge does
		msg, _ := json.Marshal(coherence.Msg{URL: fx.obj.URL, Version: v})
		preq := httplite.NewRequest("POST", "ec2", coherence.DefaultPurgePath)
		preq.Body = msg
		if resp, err := httplite.NewClient(fx.net.Node("client")).Do(fx.controller.Addr(), preq); err != nil || resp.Status != 200 {
			t.Errorf("purge post: %v", err)
			return
		}
		fx.sim.Sleep(time.Second)
		if fx.ap.purges.Value() != 1 {
			t.Errorf("ap purges = %d, want 1", fx.ap.purges.Value())
		}
		if _, ok := fx.controller.locations[fx.obj.URL]; ok {
			t.Error("location survived the purge")
		}

		// ...and even with the location fabricated stale again, the AP's
		// 404 sends the client to the edge, which serves the new version.
		fx.controller.locations[fx.obj.URL] = []string{"ap"}
		body, err = client.Get(fx.obj.URL)
		if err != nil || !bytes.Equal(body, fx.obj.Body()) || bytes.Equal(body, v0) {
			t.Errorf("post-purge get stale or failed: %v (%d bytes)", err, len(body))
		}
	})
}

func TestLRUEvictionReportsToController(t *testing.T) {
	// A tiny AP cache that can hold exactly one of the two objects.
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() {
		obj2 := &objstore.Object{URL: "http://api.w.example/chunk2", App: "w", Size: 32 << 10,
			TTL: 30 * time.Minute, Priority: 1, OriginDelay: 10 * time.Millisecond}
		fx := newFixture(t, sim, 40<<10, obj2)

		client := NewClient(sim, fx.net.Node("client"), "w", fx.controller.Addr(),
			transport.Addr{Host: "edge", Port: 80})
		client.Declare(fx.obj.URL, fx.obj.TTL, fx.obj.Priority)
		client.Declare(obj2.URL, obj2.TTL, obj2.Priority)

		if _, err := client.Get(fx.obj.URL); err != nil {
			t.Errorf("get1: %v", err)
			return
		}
		sim.Sleep(2 * time.Second)
		if _, err := client.Get(obj2.URL); err != nil {
			t.Errorf("get2: %v", err)
			return
		}
		sim.Sleep(2 * time.Second)
		// The fill of obj2 evicted obj1; the controller must have been
		// told, so a fetch of obj1 is a miss again (and triggers refill).
		if loc, ok := fx.controller.locations[fx.obj.URL]; ok {
			t.Errorf("controller still maps %s to %s after eviction", fx.obj.URL, loc)
		}
		if _, ok := fx.controller.locations[obj2.URL]; !ok {
			t.Error("controller missing the filled object")
		}
	})
	sim.Shutdown()
	sim.Wait()
	if err := sim.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestUndeclaredURLGetsDefaults(t *testing.T) {
	run(t, 5<<20, func(fx *fixture) {
		client := NewClient(fx.sim, fx.net.Node("client"), "w", fx.controller.Addr(),
			transport.Addr{Host: "edge", Port: 80})
		// No Declare: defaults apply, fetch still works via the edge.
		body, err := client.Get(fx.obj.URL + "?x=1")
		if err != nil || !bytes.Equal(body, fx.obj.Body()) {
			t.Errorf("get: %v", err)
		}
	})
}

// deadHost is a transport.Host whose dials and listens fail: enough to
// build a controller whose handlers are driven directly.
type deadHost struct{}

func (deadHost) Name() string { return "ec2" }
func (deadHost) Listen(uint16) (transport.Listener, error) {
	return nil, transport.ErrRefused
}
func (deadHost) ListenPacket(uint16) (transport.PacketConn, error) {
	return nil, transport.ErrRefused
}
func (deadHost) Dial(transport.Addr) (transport.Stream, error) {
	return nil, transport.ErrRefused
}
func (deadHost) Now() time.Time { return time.Now() }

// TestControllerHandlersConcurrent drives the report, locate and purge
// handlers from real goroutines, as edged's real-socket server does;
// run under -race it catches unguarded location-table and counter
// access.
func TestControllerHandlersConcurrent(t *testing.T) {
	c := NewController(&vclock.Real{}, deadHost{})
	const workers, rounds = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				u := fmt.Sprintf("http://api.m.example/obj%d", i%16)
				switch (w + i) % 3 {
				case 0:
					body, _ := json.Marshal(report{AP: fmt.Sprintf("ap%d", w), Add: []string{u}})
					c.handleReport(&httplite.Request{Body: body})
				case 1:
					body, _ := json.Marshal(locateRequest{URL: u})
					c.handleLocate(&httplite.Request{Body: body})
				case 2:
					body, _ := json.Marshal(coherence.Msg{URL: u, Version: int64(i + 1)})
					c.handlePurge(&httplite.Request{Body: body})
				}
			}
		}()
	}
	wg.Wait()
	if want := workers * rounds / 3; int(c.locates.Value()) < want-workers || int(c.purges.Value()) < want-workers {
		t.Errorf("locates = %d, purges = %d, want about %d each", int(c.locates.Value()), int(c.purges.Value()), want)
	}
}

// TestChunkQuery pins /chunk's query handling: a semicolon, a bad escape
// or a missing u is a 400, and a repeated u serves the first value.
func TestChunkQuery(t *testing.T) {
	ap := NewAPServer(&vclock.Real{}, deadHost{}, "ap", 1<<20, transport.Addr{}, transport.Addr{})
	obj := &objstore.Object{URL: "http://api.w.example/a", App: "w", Size: 3, TTL: time.Hour}
	if err := ap.Store().Put(obj, []byte("abc"), 0); err != nil {
		t.Fatal(err)
	}
	cached, absent := url.QueryEscape(obj.URL), url.QueryEscape("http://api.w.example/b")
	for _, tc := range []struct {
		path   string
		status int
		body   string
	}{
		{"/chunk?u=" + cached, 200, "abc"},
		{"/chunk?u=" + cached + "&u=" + absent, 200, "abc"},
		{"/chunk?u=" + absent + "&u=" + cached, 404, "not cached"},
		{"/chunk?u=" + cached + ";x=1", 400, "missing u"},
		{"/chunk?u=%zz", 400, "missing u"},
		{"/chunk?app=w", 400, "missing u"},
	} {
		resp := ap.handleChunk(&httplite.Request{Method: "GET", Path: tc.path})
		if resp.Status != tc.status || string(resp.Body) != tc.body {
			t.Errorf("%s: %d %q, want %d %q", tc.path, resp.Status, resp.Body, tc.status, tc.body)
		}
	}
}
