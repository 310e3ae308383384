package wicache

import (
	"testing"
	"time"

	"apecache/internal/objstore"
	"apecache/internal/simnet"
	"apecache/internal/telemetry"
	"apecache/internal/transport"
	"apecache/internal/vclock"
)

// TestControllerCountsLocates checks that an instrumented controller
// counts locate traffic in the bundle's registry.
func TestControllerCountsLocates(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() {
		net := simnet.New(sim, 8)
		net.SetLink("client", "ap", simnet.Path{Latency: time.Millisecond})
		net.SetLink("client", "ec2", simnet.Path{Latency: 11 * time.Millisecond, Hops: 12})
		net.SetLink("ap", "ec2", simnet.Path{Latency: 10 * time.Millisecond, Hops: 11})
		net.SetLink("client", "edge", simnet.Path{Latency: 14 * time.Millisecond, Hops: 7})
		net.SetLink("ap", "edge", simnet.Path{Latency: 13 * time.Millisecond, Hops: 7})
		net.SetLink("edge", "origin", simnet.Path{Latency: 20 * time.Millisecond})

		obj := &objstore.Object{URL: "http://api.w.example/chunk", App: "w", Size: 32 << 10,
			TTL: 30 * time.Minute, Priority: 2, OriginDelay: 15 * time.Millisecond}
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

		tel := telemetry.New(sim)
		controller := NewController(sim, net.Node("ec2"))
		controller.Instrument(tel)
		if err := controller.Start(0); err != nil {
			t.Errorf("controller: %v", err)
			return
		}
		ap := NewAPServer(sim, net.Node("ap"), "ap", 5<<20,
			transport.Addr{Host: "edge", Port: 80}, controller.Addr())
		ap.Instrument(tel)
		if err := ap.Start(0); err != nil {
			t.Errorf("ap: %v", err)
			return
		}
		controller.RegisterAP("ap", ap.Addr(), ap.Addr())

		client := NewClient(sim, net.Node("client"), "w", controller.Addr(),
			transport.Addr{Host: "edge", Port: 80})
		client.Declare(obj.URL, obj.TTL, obj.Priority)
		if _, err := client.Get(obj.URL); err != nil {
			t.Errorf("get: %v", err)
			return
		}

		if got := tel.BuildSnapshot("ec2", 0, 0).Counters["wicache_locates_total"]; got != 1 {
			t.Errorf("wicache_locates_total = %v, want 1", got)
		}
	})
	sim.Shutdown()
	sim.Wait()
	if err := sim.Err(); err != nil {
		t.Fatal(err)
	}
}
