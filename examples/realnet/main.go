// Command realnet runs the APE-CACHE stack over genuine UDP/TCP sockets
// on the loopback interface — the exact same protocol code the simulator
// drives, but on the operating system's network stack and wall clock: an
// origin server, an edge cache, an AP runtime (DNS-Cache on UDP + object
// cache on TCP) and a client that declares a cacheable object and fetches
// it repeatedly.
package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"apecache"
	"apecache/internal/objstore"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "realnet:", err)
		os.Exit(1)
	}
}

func run() error {
	env := apecache.RealEnv()
	host := apecache.NewRealHost("")

	catalog := objstore.NewCatalog(&objstore.Object{
		URL:         "http://api.demo.example/blob",
		App:         "demo",
		Size:        64 << 10,
		TTL:         apecache.DefaultTTL,
		Priority:    apecache.PriorityHigh,
		OriginDelay: 40 * time.Millisecond, // a deliberately slow origin
	})

	origin := objstore.NewOriginServer(env, catalog)
	originL, err := origin.Run(host, 0)
	if err != nil {
		return err
	}
	defer originL.Close()

	edge := objstore.NewEdgeCacheServer(env, host, catalog, originL.Addr())
	edgeL, err := edge.Run(host, 0)
	if err != nil {
		return err
	}
	defer edgeL.Close()

	ap := apecache.NewAP(apecache.APConfig{
		Env:           env,
		Host:          host,
		EdgeAddr:      edgeL.Addr(),
		CacheCapacity: 5 << 20,
		Policy:        apecache.NewPACM(),
		Rng:           rand.New(rand.NewSource(time.Now().UnixNano())),
		DNSPort:       15353, // unprivileged stand-ins for 53/8080
		HTTPPort:      18080,
	})
	if err := ap.Start(); err != nil {
		return err
	}
	defer ap.Stop()

	registry := apecache.NewRegistry("demo")
	if err := registry.Register(apecache.Cacheable{
		ID:       "http://api.demo.example/blob",
		Priority: apecache.PriorityHigh,
		TTL:      apecache.DefaultTTL,
	}); err != nil {
		return err
	}
	client := apecache.NewClient(apecache.ClientConfig{
		Env:      env,
		Host:     host,
		Registry: registry,
		APDNS:    ap.DNSAddr(),
		APHTTP:   ap.HTTPAddr(),
		Rng:      rand.New(rand.NewSource(time.Now().UnixNano() + 1)),
		FlagTTL:  time.Millisecond, // re-query flags every fetch for the demo
	})

	fmt.Println("fetching over real loopback sockets:")
	for i := 1; i <= 3; i++ {
		start := time.Now()
		body, err := client.Get("http://api.demo.example/blob?r=" + fmt.Sprint(i))
		if err != nil {
			return err
		}
		source := "ap-delegation"
		if i > 1 {
			source = "ap-cache-hit"
		}
		fmt.Printf("fetch %d: %5d bytes in %8.3f ms (%s)\n",
			i, len(body), float64(time.Since(start))/float64(time.Millisecond), source)
	}
	fmt.Printf("AP cache holds %d object(s), %d delegation(s) performed\n",
		ap.Store().Len(), ap.Snapshot().Delegations)
	return nil
}
