package wicache

import (
	"bytes"
	"fmt"
	"reflect"
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

// TestControllerPurgeFanOutToFleet runs the full bus chain over two APs:
// the origin publishes to the hub at the edge, the hub relays to the
// subscribed controller, and the controller fans the purge out to every
// registered AP — after which the stale copies are gone everywhere, the
// location table is clean, and the next fetch reaches the edge for the
// new version.
func TestControllerPurgeFanOutToFleet(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() {
		net := simnet.New(sim, 12)
		net.SetLink("client", "ap1", simnet.Path{Latency: 2 * time.Millisecond})
		net.SetLink("client", "ap2", simnet.Path{Latency: 2 * time.Millisecond})
		net.SetLink("client", "ec2", simnet.Path{Latency: 11 * time.Millisecond})
		net.SetLink("client", "edge", simnet.Path{Latency: 14 * time.Millisecond})
		for _, ap := range []string{"ap1", "ap2"} {
			net.SetLink(ap, "edge", simnet.Path{Latency: 13 * time.Millisecond})
			net.SetLink(ap, "ec2", simnet.Path{Latency: 10 * time.Millisecond})
		}
		net.SetLink("ec2", "edge", simnet.Path{Latency: 12 * time.Millisecond})
		net.SetLink("edge", "origin", simnet.Path{Latency: 20 * time.Millisecond})

		obj := &objstore.Object{URL: "http://api.m.example/chunk", App: "m", Size: 16 << 10,
			TTL: 30 * time.Minute, Priority: 1, OriginDelay: 10 * time.Millisecond}
		catalog := objstore.NewCatalog(obj)
		origin := objstore.NewOriginServer(sim, catalog)
		if _, err := origin.Run(net.Node("origin"), 80); err != nil {
			t.Errorf("origin: %v", err)
			return
		}
		edge := objstore.NewEdgeCacheServer(sim, net.Node("edge"), catalog, transport.Addr{Host: "origin", Port: 80})
		edge.Prepopulate()
		hub := coherence.NewHub(sim, net.Node("edge"), func(m coherence.Msg) { edge.Invalidate(m.URL) })
		l, err := net.Node("edge").Listen(80)
		if err != nil {
			t.Errorf("edge listen: %v", err)
			return
		}
		srv := httplite.NewServer(sim, hub.Wrap(edge))
		sim.Go("edge.server", func() { srv.Serve(l) })
		hubAddr := transport.Addr{Host: "edge", Port: 80}

		controller := NewController(sim, net.Node("ec2"))
		if err := controller.Start(0); err != nil {
			t.Errorf("controller: %v", err)
			return
		}
		aps := make(map[string]*APServer, 2)
		for _, name := range []string{"ap1", "ap2"} {
			ap := NewAPServer(sim, net.Node(name), name, 5<<20,
				transport.Addr{Host: "edge", Port: 80}, controller.Addr())
			if err := ap.Start(0); err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			controller.RegisterAP(name, ap.Addr(), ap.Addr())
			aps[name] = ap
		}
		if err := controller.SubscribeBus(hubAddr); err != nil {
			t.Errorf("subscribe: %v", err)
			return
		}
		if got := len(hub.Subscribers()); got != 1 {
			t.Errorf("hub subscribers = %d, want 1 (one per fleet)", got)
		}

		// Seed both APs with the v0 copy, the controller pointing at ap1.
		v0 := obj.Body()
		for _, ap := range aps {
			if err := ap.Store().Put(obj, v0, 0); err != nil {
				t.Errorf("seed put: %v", err)
				return
			}
		}
		controller.locations[obj.URL] = []string{"ap1"}

		// The origin mutates and publishes the purge.
		v, ok := catalog.Mutate(obj.URL)
		if !ok {
			t.Error("Mutate missed object")
			return
		}
		pub := httplite.NewClient(net.Node("origin"))
		if err := coherence.Publish(pub, hubAddr, coherence.Msg{URL: obj.URL, Version: v}); err != nil {
			t.Errorf("publish: %v", err)
			return
		}
		sim.Sleep(time.Second) // hub -> controller -> both APs

		if controller.purges.Value() != 1 || controller.relays.Value() != 2 {
			t.Errorf("controller purges=%d relays=%d, want 1/2", controller.purges.Value(), controller.relays.Value())
		}
		if _, ok := controller.locations[obj.URL]; ok {
			t.Error("location survived the purge")
		}
		for name, ap := range aps {
			if ap.purges.Value() != 1 {
				t.Errorf("%s purges = %d, want 1", name, ap.purges.Value())
			}
			if _, resident := ap.Store().Get(obj.URL); resident {
				t.Errorf("%s still serves the purged copy", name)
			}
		}

		// The next client fetch misses at the controller and lands on the
		// edge, which — purged by the hub before fan-out — serves v1.
		client := NewClient(sim, net.Node("client"), "m", controller.Addr(), hubAddr)
		client.Declare(obj.URL, obj.TTL, obj.Priority)
		body, err := client.Get(obj.URL)
		if err != nil || !bytes.Equal(body, obj.Body()) || bytes.Equal(body, v0) {
			t.Errorf("post-purge fetch stale or failed: %v (%d bytes)", err, len(body))
		}
	})
	sim.Shutdown()
	sim.Wait()
	if err := sim.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestAPServerSweeperEvictsExpired drives the Wi-Cache AP's background
// sweep on the virtual clock: an expired LRU entry disappears without any
// access touching it.
func TestAPServerSweeperEvictsExpired(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() {
		net := simnet.New(sim, 1)
		ap := NewAPServer(sim, net.Node("ap"), "ap", 1<<20,
			transport.Addr{Host: "edge", Port: 80}, transport.Addr{Host: "ec2", Port: 7000})
		if err := ap.Start(0); err != nil {
			t.Errorf("ap: %v", err)
			return
		}
		o := &objstore.Object{URL: "http://a.example/x", App: "a", Size: 64, TTL: time.Second, Priority: 1}
		if err := ap.Store().Put(o, o.Body(), 0); err != nil {
			t.Errorf("Put: %v", err)
			return
		}
		sim.Sleep(55 * time.Second)
		if ap.Store().Len() != 1 {
			t.Errorf("swept early: len=%d", ap.Store().Len())
		}
		sim.Sleep(6 * time.Second)
		if ap.Store().Len() != 0 {
			t.Errorf("not swept: len=%d", ap.Store().Len())
		}
		ap.Stop()
	})
	sim.Shutdown()
	sim.Wait()
	if err := sim.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestControllerStopHaltsRelayDispatcher: once the controller's Stop
// returns, its relay dispatcher's workers have exited instead of waking
// every tick until the process ends.
func TestControllerStopHaltsRelayDispatcher(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() {
		net := simnet.New(sim, 1)
		controller := NewController(sim, net.Node("ec2"))
		controller.EnableDispatch(coherence.DispatchConfig{})
		if err := controller.Start(0); err != nil {
			t.Errorf("controller: %v", err)
			return
		}
		if got := sim.Live(false)["coherence.dispatch"]; got != coherence.DefaultWorkers {
			t.Errorf("dispatch workers running = %d, want %d", got, coherence.DefaultWorkers)
		}
		controller.Stop()
		if got := sim.Live(false)["coherence.dispatch"]; got != 0 {
			t.Errorf("dispatch workers still running after Stop: %d", got)
		}
	})
	sim.Shutdown()
	sim.Wait()
	if err := sim.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestControllerRelaysInRegistrationOrder: the legacy purge relay dials
// the fleet in AP registration order (a re-registered AP keeps its
// place), so on equal-latency links the purges arrive in that order; the
// fill fallback and the dispatcher registration walk the same order.
func TestControllerRelaysInRegistrationOrder(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() {
		net := simnet.New(sim, 1)
		controller := NewController(sim, net.Node("ec2"))
		var (
			mu       sync.Mutex
			arrivals []string
			order    []string
		)
		for i := 0; i < 16; i++ {
			// Registration order differs from name order.
			name := fmt.Sprintf("ap%02d", (i*7)%16)
			order = append(order, name)
			net.SetLink("ec2", name, simnet.Path{Latency: 2 * time.Millisecond})
			mux := httplite.NewMux()
			mux.HandleFunc(coherence.DefaultPurgePath, func(*httplite.Request) *httplite.Response {
				mu.Lock()
				arrivals = append(arrivals, name)
				mu.Unlock()
				return httplite.NewResponse(200, nil)
			})
			l, err := net.Node(name).Listen(80)
			if err != nil {
				t.Errorf("%s listen: %v", name, err)
				return
			}
			srv := httplite.NewServer(sim, mux)
			sim.Go(name+".server", func() { srv.Serve(l) })
			addr := transport.Addr{Host: name, Port: 80}
			controller.RegisterAP(name, addr, addr)
		}
		// Re-registering an AP must not move it to the back.
		controller.RegisterAP(order[0], transport.Addr{Host: order[0], Port: 80}, transport.Addr{Host: order[0], Port: 80})

		if fill, ok := controller.fillTarget("unknown-ap"); !ok || fill.Host != order[0] {
			t.Errorf("fill fallback = %v (%v), want first registered AP %s", fill, ok, order[0])
		}

		body := []byte(`{"url":"http://api.m.example/chunk","version":2}`)
		if resp := controller.handlePurge(&httplite.Request{Body: body}); resp.Status != 200 {
			t.Errorf("purge: status %d", resp.Status)
		}
		sim.Sleep(time.Second)
		mu.Lock()
		got := append([]string(nil), arrivals...)
		mu.Unlock()
		if !reflect.DeepEqual(got, order) {
			t.Errorf("purge arrival order\n got %v\nwant %v", got, order)
		}

		d := controller.EnableDispatch(coherence.DispatchConfig{})
		defer d.Stop()
		var registered []string
		for _, sub := range d.Subscribers() {
			registered = append(registered, sub.Addr.Host)
		}
		if !reflect.DeepEqual(registered, order) {
			t.Errorf("dispatcher registration order\n got %v\nwant %v", registered, order)
		}
	})
	sim.Shutdown()
	sim.Wait()
	if err := sim.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestControllerRelayEvictsDeadAP: the default (untargeted) purge relay
// shares the dispatcher's failure rule, so an AP that fails
// DefaultMaxFailures consecutive relays is dropped while the live AP
// keeps receiving every purge, addressed to its fill host.
func TestControllerRelayEvictsDeadAP(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() {
		net := simnet.New(sim, 1)
		net.SetLink("ec2", "dead", simnet.Path{Latency: time.Millisecond})
		net.SetLink("ec2", "live", simnet.Path{Latency: time.Millisecond})
		var (
			mu    sync.Mutex
			hosts []string
		)
		mux := httplite.NewMux()
		mux.HandleFunc(coherence.DefaultPurgePath, func(req *httplite.Request) *httplite.Response {
			mu.Lock()
			hosts = append(hosts, req.Host)
			mu.Unlock()
			return httplite.NewResponse(200, nil)
		})
		l, err := net.Node("live").Listen(80)
		if err != nil {
			t.Errorf("live listen: %v", err)
			return
		}
		srv := httplite.NewServer(sim, mux)
		sim.Go("live.server", func() { srv.Serve(l) })

		controller := NewController(sim, net.Node("ec2"))
		controller.RegisterAP("ap-dead", transport.Addr{Host: "dead", Port: 80}, transport.Addr{Host: "dead", Port: 80})
		controller.RegisterAP("ap-live", transport.Addr{Host: "live", Port: 80}, transport.Addr{Host: "live", Port: 80})
		for i := 0; i < coherence.DefaultMaxFailures; i++ {
			if got := len(controller.Dispatch().Subscribers()); got != 2 {
				t.Fatalf("round %d: relay targets = %d, want 2 before %d failures", i, got, coherence.DefaultMaxFailures)
			}
			body := []byte(fmt.Sprintf(`{"url":"http://api.m.example/chunk","version":%d}`, i+1))
			if resp := controller.handlePurge(&httplite.Request{Body: body}); resp.Status != 200 {
				t.Errorf("purge: status %d", resp.Status)
			}
			sim.Sleep(50 * time.Millisecond)
		}
		subs := controller.Dispatch().Subscribers()
		if len(subs) != 1 || subs[0].Addr.Host != "live" {
			t.Errorf("relay targets after %d failures = %+v, want only the live AP", coherence.DefaultMaxFailures, subs)
		}
		if st := controller.Dispatch().Stats(); st.Evicted != 1 {
			t.Errorf("evicted = %d, want 1", st.Evicted)
		}
		mu.Lock()
		defer mu.Unlock()
		if len(hosts) != coherence.DefaultMaxFailures || hosts[0] != "live" {
			t.Errorf("live AP got %d relays with Host %v, want %d addressed to its fill host", len(hosts), hosts, coherence.DefaultMaxFailures)
		}
	})
	sim.Shutdown()
	sim.Wait()
	if err := sim.Err(); err != nil {
		t.Fatal(err)
	}
}
