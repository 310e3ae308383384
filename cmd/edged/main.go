// Command edged runs an origin server plus an edge cache server on real
// sockets, serving a synthetic object catalog — the deployable stand-in
// for the paper's edge desktop. aped delegates to it and APE-CACHE
// clients fall back to it on Cache-Miss flags. The coherence hub shares
// the edge port: origins publish purges to /_coherence/publish, APs
// subscribe via /_coherence/subscribe, and the hub invalidates the
// edge's own copy before relaying. With -fleet-port, edged also runs the
// control plane (internal/controlplane): the fleet store APs push
// snapshots to and the mesh directory they publish summaries to. Every
// purge the hub takes tombstones the URL in that directory.
//
// Usage:
//
//	edged -ip 127.0.0.1 -edge-port 8080 -origin-port 8081 \
//	      -domains api.demo.example,cdn.demo.example -objects 8
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"apecache"
	"apecache/internal/coherence"
	"apecache/internal/controlplane"
	"apecache/internal/httplite"
	"apecache/internal/objstore"
)

func main() {
	var (
		ip         = flag.String("ip", "127.0.0.1", "local IP to bind")
		edgePort   = flag.Uint("edge-port", 8080, "TCP port of the edge cache server")
		originPort = flag.Uint("origin-port", 8081, "TCP port of the origin server")
		domains    = flag.String("domains", "api.demo.example", "comma-separated object domains")
		objects    = flag.Int("objects", 8, "objects per domain")
		seed       = flag.Int64("seed", 1, "catalog generation seed")
		fleetPort  = flag.Uint("fleet-port", 0, "TCP port of the control plane: fleet store and mesh directory (0: disabled)")
		busShards  = flag.Int("bus-shards", 0, "enable the sharded, batched purge fan-out with this many domain shards (0: legacy per-delivery relay)")
		busFlush   = flag.Duration("bus-flush", 0, "purge coalescing flush interval (with -bus-shards; 0: default)")
		busBatch   = flag.Int("bus-batch", 0, "max purge messages per wire batch (with -bus-shards; 0: default)")
	)
	flag.Parse()
	if err := run(*ip, uint16(*edgePort), uint16(*originPort), uint16(*fleetPort), strings.Split(*domains, ","), *objects, *seed,
		coherence.DispatchConfig{Shards: *busShards, FlushInterval: *busFlush, MaxBatch: *busBatch}); err != nil {
		fmt.Fprintln(os.Stderr, "edged:", err)
		os.Exit(1)
	}
}

func run(ip string, edgePort, originPort, fleetPort uint16, domains []string, perDomain int, seed int64, dispatch coherence.DispatchConfig) error {
	env := apecache.RealEnv()
	host := apecache.NewRealHost(ip)
	rng := rand.New(rand.NewSource(seed))

	var objs []*objstore.Object
	for _, domain := range domains {
		domain = strings.TrimSpace(domain)
		if domain == "" {
			continue
		}
		for i := range perDomain {
			objs = append(objs, &objstore.Object{
				URL:         fmt.Sprintf("http://%s/obj%d", domain, i),
				App:         domain,
				Size:        (1 + rng.Intn(100)) << 10,
				TTL:         time.Duration(10+rng.Intn(51)) * time.Minute,
				Priority:    1 + rng.Intn(2),
				OriginDelay: time.Duration(20+rng.Intn(31)) * time.Millisecond,
			})
		}
	}
	catalog := objstore.NewCatalog(objs...)
	if err := catalog.Validate(); err != nil {
		return err
	}

	tel := apecache.NewTelemetry(env)
	origin := objstore.NewOriginServer(env, catalog)
	origin.Instrument(tel)
	originL, err := origin.Run(host, originPort)
	if err != nil {
		return err
	}
	defer originL.Close()

	edge := objstore.NewEdgeCacheServer(env, host, catalog, originL.Addr())
	edge.Instrument(tel)
	var cp *controlplane.Server
	if fleetPort != 0 {
		cp = controlplane.New(env, host, tel, controlplane.FleetConfig{})
	}
	hub := coherence.NewHub(env, host, func(m coherence.Msg) {
		edge.Invalidate(m.URL)
		if cp != nil {
			cp.Mesh().Purge(m.URL)
		}
	})
	hub.Instrument(tel)
	var sharded *coherence.Dispatcher
	if dispatch.Shards > 0 {
		sharded = hub.EnableDispatch(dispatch)
	}
	edgeL, err := host.Listen(edgePort)
	if err != nil {
		return err
	}
	defer edgeL.Close()
	mux := httplite.NewMux()
	tel.Register(mux)
	mux.Handle("/", hub.Wrap(edge))
	srv := httplite.NewServer(env, mux)
	env.Go("edged.edge", func() { srv.Serve(edgeL) })

	fmt.Printf("edged: origin on %s, edge cache on %s, %d objects across %d domain(s)\n",
		originL.Addr(), edgeL.Addr(), catalog.Len(), len(catalog.Domains()))
	fmt.Printf("edged: coherence bus on %s%s (publish) and %s (subscribe)\n",
		edgeL.Addr(), coherence.PathPublish, coherence.PathSubscribe)
	if sharded != nil {
		cfg := sharded.Config()
		fmt.Printf("edged: sharded purge fan-out: %d shards, %d workers, flush %v, batches up to %d (stats at %s)\n",
			cfg.Shards, coherence.DefaultWorkers, cfg.FlushInterval, cfg.MaxBatch, coherence.PathStats)
	}
	fmt.Printf("edged: telemetry on %s/metrics, /debug/vars, /debug/pprof, /trace\n", edgeL.Addr())
	if cp != nil {
		if err := cp.Start(fleetPort); err != nil {
			return err
		}
		defer cp.Stop()
		fmt.Printf("edged: control plane on %s (/fleet, /alerts; APs push with aped -fleet)\n", cp.Addr())
		fmt.Printf("edged: mesh directory on %s/mesh (APs publish with aped -mesh; inspect with apectl peers)\n", cp.Addr())
	}
	for _, o := range catalog.All() {
		fmt.Printf("  %s  (%d KB, prio %d, ttl %v)\n", o.URL, o.Size>>10, o.Priority, o.TTL)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("edged: shutting down")
	return nil
}
