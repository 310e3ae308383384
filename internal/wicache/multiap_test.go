package wicache

import (
	"bytes"
	"testing"
	"time"

	"apecache/internal/objstore"
	"apecache/internal/simnet"
	"apecache/internal/transport"
	"apecache/internal/vclock"
)

// TestMultiAPFillAndCrossAPRetrieval deploys two APs under one
// controller: a fill lands at the requesting client's home AP, and a
// client homed elsewhere is redirected across APs to fetch it — the
// original Wi-Cache's distributed workflow.
func TestMultiAPFillAndCrossAPRetrieval(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() {
		net := simnet.New(sim, 12)
		for _, client := range []string{"client1", "client2"} {
			net.SetLink(client, "ap1", simnet.Path{Latency: 2 * time.Millisecond})
			net.SetLink(client, "ap2", simnet.Path{Latency: 2 * time.Millisecond})
			net.SetLink(client, "ec2", simnet.Path{Latency: 11 * time.Millisecond})
			net.SetLink(client, "edge", simnet.Path{Latency: 14 * time.Millisecond})
		}
		for _, ap := range []string{"ap1", "ap2"} {
			net.SetLink(ap, "edge", simnet.Path{Latency: 13 * time.Millisecond})
			net.SetLink(ap, "ec2", simnet.Path{Latency: 10 * time.Millisecond})
		}
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
		if _, err := edge.Run(net.Node("edge"), 80); err != nil {
			t.Errorf("edge: %v", err)
			return
		}

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

		edgeAddr := transport.Addr{Host: "edge", Port: 80}
		client1 := NewClient(sim, net.Node("client1"), "m", controller.Addr(), edgeAddr)
		client1.SetHomeAP("ap1")
		client1.Declare(obj.URL, obj.TTL, obj.Priority)
		client2 := NewClient(sim, net.Node("client2"), "m", controller.Addr(), edgeAddr)
		client2.SetHomeAP("ap2")
		client2.Declare(obj.URL, obj.TTL, obj.Priority)

		// Client1 misses; the fill must land at ap1, not ap2.
		if _, err := client1.Get(obj.URL); err != nil {
			t.Errorf("client1 get: %v", err)
			return
		}
		sim.Sleep(2 * time.Second)
		if aps["ap1"].fills.Value() != 1 || aps["ap2"].fills.Value() != 0 {
			t.Errorf("fills ap1=%d ap2=%d, want 1/0 (home-AP placement)", aps["ap1"].fills.Value(), aps["ap2"].fills.Value())
		}

		// Client2 (homed on ap2) now asks: the controller redirects it to
		// ap1, which serves the chunk cross-AP.
		body, err := client2.Get(obj.URL)
		if err != nil || !bytes.Equal(body, obj.Body()) {
			t.Errorf("client2 get: %v", err)
			return
		}
		if client2.Stats().Hits.All.Hits() != 1 {
			t.Error("cross-AP fetch not a controller hit")
		}
		if aps["ap2"].fills.Value() != 0 {
			t.Error("cross-AP retrieval should not trigger a second fill")
		}
	})
	sim.Shutdown()
	sim.Wait()
	if err := sim.Err(); err != nil {
		t.Fatal(err)
	}
}
