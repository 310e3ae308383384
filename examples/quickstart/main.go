// Command quickstart is the smallest end-to-end APE-CACHE program: it
// builds a simulated WiFi AP + edge + origin topology, declares one
// cacheable object with a struct tag, and fetches it twice — the first
// fetch is delegated to the AP (which caches it), the second is a
// millisecond-level AP cache hit.
package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"apecache"
	"apecache/internal/dnsd"
	"apecache/internal/objstore"
	"apecache/internal/simnet"
	"apecache/internal/vclock"
)

// weather demonstrates the annotation (struct tag) programming model:
// the field's tag declares the object's URL identity, priority and TTL in
// minutes, exactly like the paper's @Cacheable Java annotation.
type weather struct {
	Forecast []byte `cacheable:"id=http://api.weather.example/forecast,priority=2,ttl=30"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// The simulation clock: one virtual hour runs in milliseconds, and
	// the same code runs under apecache.RealEnv() on real sockets.
	return vclock.Simulate("quickstart", demo)
}

func demo(sim *vclock.Sim) error {
	// Topology: client --(WiFi, 2.5ms)-- ap --(12ms)-- edge --(25ms)-- origin.
	net := simnet.New(sim, 1)
	net.SetLink("client", "ap", simnet.Path{Latency: 2500 * time.Microsecond})
	net.SetLink("ap", "edge", simnet.Path{Latency: 12 * time.Millisecond, Hops: 7})
	net.SetLink("edge", "origin", simnet.Path{Latency: 25 * time.Millisecond, Hops: 12})

	// The object universe: one 20 KB forecast blob produced by a slowish
	// origin.
	catalog := objstore.NewCatalog(&objstore.Object{
		URL:         "http://api.weather.example/forecast",
		App:         "weather",
		Size:        20 << 10,
		TTL:         apecache.DefaultTTL,
		Priority:    apecache.PriorityHigh,
		OriginDelay: 30 * time.Millisecond,
	})
	origin := objstore.NewOriginServer(sim, catalog)
	if _, err := origin.Run(net.Node("origin"), 80); err != nil {
		return err
	}
	edge := objstore.NewEdgeCacheServer(sim, net.Node("edge"), catalog, apecache.Addr{Host: "origin", Port: 80})
	if _, err := edge.Run(net.Node("edge"), 80); err != nil {
		return err
	}

	// The AP runtime: PACM-managed 5 MB cache, DNS-Cache handling.
	ap := apecache.NewAP(apecache.APConfig{
		Env:           sim,
		Host:          net.Node("ap"),
		EdgeAddr:      apecache.Addr{Host: "edge", Port: 80},
		CacheCapacity: 5 << 20,
		Policy:        apecache.NewPACM(),
		Rng:           rand.New(rand.NewSource(2)),
	})
	if err := ap.Start(); err != nil {
		return err
	}

	// The client runtime: declarations come from the struct tag.
	registry := apecache.NewRegistry("weather")
	if err := registry.RegisterStruct(&weather{}); err != nil {
		return err
	}
	client := apecache.NewClient(apecache.ClientConfig{
		Env:      sim,
		Host:     net.Node("client"),
		Registry: registry,
		APDNS:    ap.DNSAddr(),
		APHTTP:   ap.HTTPAddr(),
		Book:     dnsd.NewAddrBook(),
		Rng:      rand.New(rand.NewSource(3)),
	})

	for i := 1; i <= 3; i++ {
		start := sim.Now()
		body, err := client.Get("http://api.weather.example/forecast?city=detroit")
		if err != nil {
			return err
		}
		fmt.Printf("fetch %d: %5d bytes in %7.2f ms\n",
			i, len(body), float64(sim.Now().Sub(start))/float64(time.Millisecond))
		sim.Sleep(2 * time.Second) // let the client's flag cache expire
	}
	fmt.Printf("AP cache: %d object(s), %d bytes used, %d delegation(s)\n",
		ap.Store().Len(), ap.Store().Used(), ap.Snapshot().Delegations)
	fmt.Printf("lookup latency: %v | retrieval latency: %v\n",
		client.Stats().Lookup.Mean().Round(10*time.Microsecond),
		client.Stats().Retrieval.Mean().Round(10*time.Microsecond))
	return nil
}
