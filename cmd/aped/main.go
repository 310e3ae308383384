// Command aped runs the APE-CACHE access-point runtime on real sockets:
// a DNS server handling both ordinary and DNS-Cache queries on UDP and
// the object-cache/delegation HTTP endpoint on TCP. It is the deployable
// equivalent of the paper's modified dnsmasq.
//
// Usage:
//
//	aped -ip 127.0.0.1 -dns-port 15353 -http-port 18080 \
//	     -upstream 8.8.8.8:53 -edge 127.0.0.1:8080 \
//	     -cache-mb 5 -policy pacm -coherence swr \
//	     -mesh 127.0.0.1:9090 -mesh-interval 5s
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
	"apecache/internal/transport"
)

func main() {
	var (
		ip       = flag.String("ip", "127.0.0.1", "local IP to bind")
		dnsPort  = flag.Uint("dns-port", 15353, "UDP port for DNS / DNS-Cache queries")
		httpPort = flag.Uint("http-port", 18080, "TCP port for cache fetch and delegation")
		upstream = flag.String("upstream", "127.0.0.1:53", "upstream resolver host:port")
		edge     = flag.String("edge", "127.0.0.1:8080", "edge cache server host:port")
		cacheMB  = flag.Int64("cache-mb", 5, "cache capacity in MiB")
		policy   = flag.String("policy", "pacm", "eviction policy: pacm or lru")
		cohMode  = flag.String("coherence", "off", "coherence mode: off, invalidate or swr")
		busFlag  = flag.String("bus", "", "coherence hub host:port (default: the -edge endpoint)")
		purgeB   = flag.Bool("purge-batch", false, "accept coalesced MsgBatch purge deliveries from a sharded hub")
		purgeDom = flag.String("purge-domains", "", "comma-separated domain interest announced to a sharded hub (empty: receive every purge)")
		fleet    = flag.String("fleet", "", "fleet controller host:port for telemetry snapshot pushes (empty: disabled)")
		snapIntv = flag.Duration("snapshot-interval", 10*time.Second, "telemetry snapshot push cadence (with -fleet)")
		node     = flag.String("node", "", "fleet/mesh node name (default ap:<ip>:<http-port>; must be unique per AP)")
		mesh     = flag.String("mesh", "", "mesh directory (Wi-Cache controller) host:port for cooperative peer fetch (empty: disabled)")
		meshIntv = flag.Duration("mesh-interval", 5*time.Second, "content summary publish cadence (with -mesh)")
		decLog   = flag.Bool("decision-log", false, "record a cache decision ledger and serve /explain (apectl explain)")
	)
	flag.Parse()
	var domains []string
	for _, d := range strings.Split(*purgeDom, ",") {
		if d = strings.TrimSpace(d); d != "" {
			domains = append(domains, d)
		}
	}
	if err := run(*ip, uint16(*dnsPort), uint16(*httpPort), *upstream, *edge, *cacheMB, *policy, *cohMode, *busFlag, *fleet, *snapIntv, *node, *mesh, *meshIntv, *purgeB, domains, *decLog); err != nil {
		fmt.Fprintln(os.Stderr, "aped:", err)
		os.Exit(1)
	}
}

func run(ip string, dnsPort, httpPort uint16, upstream, edge string, cacheMB int64, policyName, cohMode, bus, fleet string, snapIntv time.Duration, node, mesh string, meshIntv time.Duration, purgeBatch bool, purgeDomains []string, decisionLog bool) error {
	upstreamAddr, err := transport.ParseAddr(upstream)
	if err != nil {
		return fmt.Errorf("bad -upstream: %w", err)
	}
	edgeAddr, err := transport.ParseAddr(edge)
	if err != nil {
		return fmt.Errorf("bad -edge: %w", err)
	}
	mode, err := apecache.ParseCoherenceMode(cohMode)
	if err != nil {
		return fmt.Errorf("bad -coherence: %w", err)
	}
	var busAddr transport.Addr
	if bus != "" {
		if busAddr, err = transport.ParseAddr(bus); err != nil {
			return fmt.Errorf("bad -bus: %w", err)
		}
	}
	var fleetAddr transport.Addr
	if fleet != "" {
		if fleetAddr, err = transport.ParseAddr(fleet); err != nil {
			return fmt.Errorf("bad -fleet: %w", err)
		}
	}
	var meshAddr transport.Addr
	if mesh != "" {
		if meshAddr, err = transport.ParseAddr(mesh); err != nil {
			return fmt.Errorf("bad -mesh: %w", err)
		}
	}
	if node == "" && (fleet != "" || mesh != "") {
		// Several APs can share one host address (loopback demos,
		// NAT): the HTTP port keeps fleet/mesh node names unique.
		node = fmt.Sprintf("ap:%s:%d", ip, httpPort)
	}
	var policy apecache.CachePolicy
	switch policyName {
	case "pacm":
		policy = apecache.NewPACM()
	case "lru":
		policy = apecache.NewLRU()
	default:
		return fmt.Errorf("unknown policy %q (pacm or lru)", policyName)
	}

	ap := apecache.NewAP(apecache.APConfig{
		Env:              apecache.RealEnv(),
		Host:             apecache.NewRealHost(ip),
		Upstream:         upstreamAddr,
		EdgeAddr:         edgeAddr,
		CacheCapacity:    cacheMB << 20,
		Policy:           policy,
		Rng:              rand.New(rand.NewSource(time.Now().UnixNano())),
		DNSPort:          dnsPort,
		HTTPPort:         httpPort,
		Coherence:        mode,
		BusAddr:          busAddr,
		PurgeBatch:       purgeBatch,
		PurgeDomains:     purgeDomains,
		FleetAddr:        fleetAddr,
		SnapshotInterval: snapIntv,
		NodeName:         node,
		MeshAddr:         meshAddr,
		MeshInterval:     meshIntv,
		DecisionLog:      decisionLog,
	})
	if err := ap.Start(); err != nil {
		return err
	}
	defer ap.Stop()
	fmt.Printf("aped: DNS on %s, HTTP on %s, %d MiB %s cache, upstream %s, edge %s, coherence %s\n",
		ap.DNSAddr(), ap.HTTPAddr(), cacheMB, policyName, upstreamAddr, edgeAddr, mode)
	fmt.Printf("aped: telemetry on %s/metrics, /debug/vars, /debug/pprof, /trace\n", ap.HTTPAddr())
	if !fleetAddr.IsZero() {
		fmt.Printf("aped: pushing telemetry snapshots to %s every %s\n", fleetAddr, snapIntv)
	}
	if !meshAddr.IsZero() {
		fmt.Printf("aped: publishing content summaries to mesh directory %s every %s\n", meshAddr, meshIntv)
	}
	if decisionLog {
		fmt.Printf("aped: decision ledger on (%d events), explain at %s/explain\n", ap.Ledger().Cap(), ap.HTTPAddr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("aped: shutting down")
	return nil
}
