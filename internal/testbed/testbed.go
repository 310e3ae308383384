// Package testbed assembles the paper's Fig 9 evaluation environment on
// the simulated network: clients behind a WiFi AP, an edge cache server 7
// hops away, an origin further out, the DNS hierarchy (LDNS +
// authoritative + CDN redirector), and the Wi-Cache controller 12 hops
// away — then instantiates any of the four compared systems (APE-CACHE,
// APE-CACHE-LRU, Wi-Cache, Edge Cache) behind a uniform Fetcher factory.
package testbed

import (
	"fmt"
	"math/rand"
	"time"

	"apecache/internal/apcache"
	"apecache/internal/apeclient"
	"apecache/internal/appmodel"
	"apecache/internal/cachepolicy"
	"apecache/internal/coherence"
	"apecache/internal/dnsd"
	"apecache/internal/dnswire"
	"apecache/internal/edgecache"
	"apecache/internal/httplite"
	"apecache/internal/metrics"
	"apecache/internal/objstore"
	"apecache/internal/simnet"
	"apecache/internal/telemetry"
	"apecache/internal/transport"
	"apecache/internal/vclock"
	"apecache/internal/wicache"
	"apecache/internal/workload"
)

// System selects which of the four compared systems a testbed runs.
type System int

// The four systems of the evaluation.
const (
	SystemAPECache System = iota + 1
	SystemAPECacheLRU
	SystemWiCache
	SystemEdgeCache
)

// Systems lists all four in the paper's comparison order.
var Systems = []System{SystemAPECache, SystemAPECacheLRU, SystemWiCache, SystemEdgeCache}

// String renders the system name as the paper spells it.
func (s System) String() string {
	switch s {
	case SystemAPECache:
		return "APE-CACHE"
	case SystemAPECacheLRU:
		return "APE-CACHE-LRU"
	case SystemWiCache:
		return "Wi-Cache"
	case SystemEdgeCache:
		return "Edge Cache"
	default:
		return fmt.Sprintf("System(%d)", int(s))
	}
}

// Node names of the Fig 9 topology.
const (
	NodeClient     = "client"
	NodeAP         = "ap"
	NodeEdge       = "edge"
	NodeOrigin     = "origin"
	NodeLDNS       = "ldns"
	NodeADNS       = "adns"
	NodeCDNDNS     = "cdndns"
	NodeController = "ec2-controller"
)

// Config parameterizes a testbed. Zero values take the calibrated
// defaults; the link latencies that reproduce the paper's absolute
// numbers are fixed (wifiLatency, edgeLatency).
type Config struct {
	Suite *workload.Suite
	// CacheCapacity is the AP cache size (default 5 MB, §V-B).
	CacheCapacity int64
	Seed          int64
	// Resources, when set, receives AP-side accounting events.
	Resources apcache.ResourceSink
	// DisableDummyIP turns off the AP's dummy-IP short circuit
	// (ablation benchmarks).
	DisableDummyIP bool
	// EnablePrefetch turns on the APPx-style extension: clients declare
	// the request DAG's edges so delegations carry prefetch hints and
	// the AP warms dependents ahead of the app's next stage.
	EnablePrefetch bool
	// Policy overrides the AP eviction policy for SystemAPECache
	// (ablations compare PACM against LRU and GDSF this way).
	Policy cachepolicy.Policy
	// DNSAnswerTTL is the CDN A-record TTL in seconds. The default 0
	// models CDN load-balancing answers that are effectively
	// uncacheable, so every Edge Cache object retrieval pays the
	// LDNS→CDN-DNS resolution — the paper's flat ~22 ms lookup stage.
	// The long-lived CNAME (TTL 300 s) stays cached at the LDNS.
	DNSAnswerTTL uint32
	// Coherence selects how caches learn about origin mutations: ModeOff
	// is TTL-only (purges published via MutateObject still reach the
	// edge's hub, but no AP subscribes), ModeInvalidate evicts on purge,
	// ModeSWR additionally serves the stale copy once while revalidating
	// in the background. APE-CACHE systems get the full mode; the
	// Wi-Cache controller subscribes (and relays to its fleet) whenever
	// the mode is not off.
	Coherence coherence.Mode
	// Telemetry, when set, is shared across every node — client, AP,
	// edge, origin, controller, hub — so request traces stitch together
	// across the whole topology. Leave nil for experiment runs: client
	// tracing adds a trace RR to DNS-Cache queries and a header to HTTP
	// hops, which changes wire sizes and therefore simulated timings.
	// Fleet snapshot pushing (apcache.Config.FleetAddr) is likewise left
	// off here for the same reason — only the dedicated Fleet testbed
	// enables it — so Table 4/5/6 and the coherence outputs stay
	// bit-identical to runs without the observability plane.
	Telemetry *telemetry.Telemetry
	// DecisionLog turns on the AP's cache decision ledger (explain
	// endpoint, miss-cause attribution). The ledger records decisions
	// and classifies misses off the wire, so enabling it does not
	// change simulated timings; baseline experiments still leave it
	// off so their configuration matches seed exactly.
	DecisionLog bool
}

func (c *Config) applyDefaults() {
	if c.CacheCapacity == 0 {
		c.CacheCapacity = 5 << 20
	}
}

// One-way latencies of the calibrated Fig 9 links.
const (
	// wifiLatency gives a WiFi RTT ≈ 5 ms plus jitter: half-duplex
	// contention on a busy 2.4/5 GHz link, per the paper's measured
	// 7.5 ms lookups.
	wifiLatency = 2500 * time.Microsecond
	// edgeLatency is 7 hops to the edge desktop: RTT ≈ 24 ms.
	edgeLatency = 12 * time.Millisecond
)

// Testbed is an assembled environment for one system.
type Testbed struct {
	Sim    *vclock.Sim
	Net    *simnet.Network
	Book   *dnsd.AddrBook
	System System

	// Servers (some nil depending on the system).
	AP           *apcache.AP
	WiController *wicache.Controller
	WiAP         *wicache.APServer
	Edge         *objstore.EdgeCacheServer
	Origin       *objstore.OriginServer
	// Hub is the invalidation bus colocated with the edge server (always
	// present; it has subscribers only when Config.Coherence is not off).
	Hub *coherence.Hub
	// Telemetry is the shared bundle from Config.Telemetry (nil when the
	// testbed runs uninstrumented).
	Telemetry *telemetry.Telemetry

	cfg Config
	rng *rand.Rand
	pub *httplite.Client

	apeClients  []*apeclient.Client
	wiClients   []*wicache.Client
	edgeClients []*edgecache.Client
}

// New assembles the topology and starts the servers for the chosen
// system. It must be called from within a simulation task.
func New(sim *vclock.Sim, system System, cfg Config) (*Testbed, error) {
	cfg.applyDefaults()
	tb := &Testbed{
		Sim:       sim,
		System:    system,
		Book:      dnsd.NewAddrBook(),
		Telemetry: cfg.Telemetry,
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed + 1000)),
	}

	net := simnet.New(sim, cfg.Seed)
	tb.Net = net
	wifi := simnet.Path{Latency: wifiLatency, Jitter: wifiLatency / 5, Hops: 1, Bandwidth: 40 << 20}
	net.SetLink(NodeClient, NodeAP, wifi)
	// The AP's uplink is the constrained leg (consumer broadband): it
	// makes delegated-fetch latency grow with object size, which is what
	// differentiates l_d across objects for PACM.
	net.SetLink(NodeAP, NodeEdge, simnet.Path{Latency: edgeLatency, Jitter: time.Millisecond, Hops: 7, Bandwidth: 18 << 20})
	net.SetLink(NodeClient, NodeEdge, simnet.Path{Latency: wifiLatency + edgeLatency, Jitter: time.Millisecond, Hops: 8, Bandwidth: 40 << 20})
	net.SetLink(NodeEdge, NodeOrigin, simnet.Path{Latency: 25 * time.Millisecond, Jitter: 2 * time.Millisecond, Hops: 12, Bandwidth: 100 << 20})
	net.SetLink(NodeAP, NodeLDNS, simnet.Path{Latency: 4 * time.Millisecond, Jitter: 500 * time.Microsecond, Hops: 3})
	net.SetLink(NodeLDNS, NodeADNS, simnet.Path{Latency: 6 * time.Millisecond, Jitter: time.Millisecond, Hops: 6})
	net.SetLink(NodeLDNS, NodeCDNDNS, simnet.Path{Latency: 4 * time.Millisecond, Jitter: time.Millisecond, Hops: 5})
	// The Wi-Cache controller on EC2, 12 hops from the AP's clients; the
	// edge leg carries coherence-bus traffic (subscribe + purge relays).
	net.SetLink(NodeClient, NodeController, simnet.Path{Latency: 11 * time.Millisecond, Jitter: time.Millisecond, Hops: 12, Bandwidth: 40 << 20})
	net.SetLink(NodeAP, NodeController, simnet.Path{Latency: 10 * time.Millisecond, Jitter: time.Millisecond, Hops: 11, Bandwidth: 100 << 20})
	net.SetLink(NodeEdge, NodeController, simnet.Path{Latency: 12 * time.Millisecond, Jitter: time.Millisecond, Hops: 10, Bandwidth: 100 << 20})

	if err := tb.startDNS(); err != nil {
		return nil, err
	}
	if err := tb.startServers(); err != nil {
		return nil, err
	}
	return tb, nil
}

// startDNS builds the resolution chain: domain -> CNAME at the ADNS ->
// CDN redirector answering the nearest edge, cached by the LDNS.
func (tb *Testbed) startDNS() error {
	edgeIP := tb.Book.Assign(NodeEdge)

	adns := dnsd.NewAuthoritative(tb.Sim)
	adns.ProcessingDelay = 300 * time.Microsecond
	cdn := dnsd.NewCDNRedirector(tb.Sim, tb.cfg.DNSAnswerTTL)
	cdn.ProcessingDelay = 300 * time.Microsecond
	cdn.SetNearest(NodeLDNS, edgeIP)
	for _, domain := range tb.cfg.Suite.Catalog.Domains() {
		adns.Add(dnswire.NewCNAME(domain, 300, "cache."+domain+".edgekey.example"))
	}

	ldns := dnsd.NewResolver(tb.Sim, tb.Net.Node(NodeLDNS), tb.rng)
	ldns.ProcessingDelay = 400 * time.Microsecond
	ldns.Delegate("", transport.Addr{Host: NodeADNS, Port: 53})
	ldns.Delegate("edgekey.example", transport.Addr{Host: NodeCDNDNS, Port: 53})

	for _, srv := range []struct {
		node string
		h    dnsd.Handler
	}{{NodeADNS, adns}, {NodeCDNDNS, cdn}, {NodeLDNS, ldns}} {
		pc, err := tb.Net.Node(srv.node).ListenPacket(53)
		if err != nil {
			return fmt.Errorf("testbed: dns %s: %w", srv.node, err)
		}
		h := srv.h
		tb.Sim.Go("dns."+srv.node, func() { dnsd.Serve(tb.Sim, pc, h) })
	}
	return nil
}

// startServers brings up origin, edge, and the system under test.
func (tb *Testbed) startServers() error {
	tb.Origin = objstore.NewOriginServer(tb.Sim, tb.cfg.Suite.Catalog)
	tb.Origin.Instrument(tb.cfg.Telemetry)
	if _, err := tb.Origin.Run(tb.Net.Node(NodeOrigin), 80); err != nil {
		return fmt.Errorf("testbed: %w", err)
	}
	tb.Edge = objstore.NewEdgeCacheServer(tb.Sim, tb.Net.Node(NodeEdge), tb.cfg.Suite.Catalog,
		transport.Addr{Host: NodeOrigin, Port: 80})
	tb.Edge.Instrument(tb.cfg.Telemetry)
	// §V-A: "the edge server's cache capacity was ample enough to store
	// all cacheable objects" — start warm.
	tb.Edge.Prepopulate()
	// The coherence hub shares the edge port and purges the colocated edge
	// copy before relaying, so revalidating caches always see fresh bytes.
	tb.Hub = coherence.NewHub(tb.Sim, tb.Net.Node(NodeEdge), func(m coherence.Msg) { tb.Edge.Invalidate(m.URL) })
	tb.Hub.Instrument(tb.cfg.Telemetry)
	edgeL, err := tb.Net.Node(NodeEdge).Listen(80)
	if err != nil {
		return fmt.Errorf("testbed: edge: %w", err)
	}
	edgeSrv := httplite.NewServer(tb.Sim, tb.Hub.Wrap(tb.Edge))
	tb.Sim.Go("edge.server", func() { edgeSrv.Serve(edgeL) })
	tb.pub = httplite.NewClient(tb.Net.Node(NodeOrigin))

	switch tb.System {
	case SystemAPECache, SystemAPECacheLRU:
		var policy cachepolicy.Policy = cachepolicy.NewPACM()
		if tb.System == SystemAPECacheLRU {
			policy = cachepolicy.NewLRU()
		}
		if tb.cfg.Policy != nil && tb.System == SystemAPECache {
			policy = tb.cfg.Policy
		}
		tb.AP = apcache.New(apcache.Config{
			Env:                tb.Sim,
			Host:               tb.Net.Node(NodeAP),
			Upstream:           transport.Addr{Host: NodeLDNS, Port: 53},
			EdgeAddr:           transport.Addr{Host: NodeEdge, Port: 80},
			CacheCapacity:      tb.cfg.CacheCapacity,
			Policy:             policy,
			Rng:                tb.rng,
			DNSProcessing:      1520 * time.Microsecond,
			PlainDNSProcessing: 1500 * time.Microsecond,
			HTTPProcessing:     900 * time.Microsecond,
			Resources:          tb.cfg.Resources,
			DisableDummyIP:     tb.cfg.DisableDummyIP,
			Coherence:          tb.cfg.Coherence,
			Telemetry:          tb.cfg.Telemetry,
			DecisionLog:        tb.cfg.DecisionLog,
		})
		if err := tb.AP.Start(); err != nil {
			return fmt.Errorf("testbed: %w", err)
		}
	case SystemWiCache:
		tb.WiController = wicache.NewController(tb.Sim, tb.Net.Node(NodeController))
		tb.WiController.ProcessingDelay = 500 * time.Microsecond
		tb.WiController.Instrument(tb.cfg.Telemetry)
		if err := tb.WiController.Start(wicache.DefaultControllerPort); err != nil {
			return fmt.Errorf("testbed: %w", err)
		}
		tb.WiAP = wicache.NewAPServer(tb.Sim, tb.Net.Node(NodeAP), NodeAP, tb.cfg.CacheCapacity,
			transport.Addr{Host: NodeEdge, Port: 80}, tb.WiController.Addr())
		tb.WiAP.ProcessingDelay = 900 * time.Microsecond
		tb.WiAP.Instrument(tb.cfg.Telemetry)
		if err := tb.WiAP.Start(wicache.DefaultAPPort); err != nil {
			return fmt.Errorf("testbed: %w", err)
		}
		tb.WiController.RegisterAP(NodeAP,
			transport.Addr{Host: NodeAP, Port: wicache.DefaultAPPort},
			transport.Addr{Host: NodeAP, Port: wicache.DefaultAPPort})
		if tb.cfg.Coherence != coherence.ModeOff {
			// Wi-Cache has no SWR: any coherence mode means the controller
			// subscribes and relays purges across its fleet.
			if err := tb.WiController.SubscribeBus(transport.Addr{Host: NodeEdge, Port: 80}); err != nil {
				return fmt.Errorf("testbed: %w", err)
			}
		}
	case SystemEdgeCache:
		// Clients resolve through a stock AP forwarder: start a plain
		// APE-less AP (forwarder only) via apcache with zero cache so
		// plain DNS queries behave like dnsmasq.
		tb.AP = apcache.New(apcache.Config{
			Env:                tb.Sim,
			Host:               tb.Net.Node(NodeAP),
			Upstream:           transport.Addr{Host: NodeLDNS, Port: 53},
			EdgeAddr:           transport.Addr{Host: NodeEdge, Port: 80},
			CacheCapacity:      1, // effectively disabled
			Policy:             cachepolicy.NewLRU(),
			Rng:                tb.rng,
			PlainDNSProcessing: 1500 * time.Microsecond,
			Resources:          tb.cfg.Resources,
		})
		if err := tb.AP.Start(); err != nil {
			return fmt.Errorf("testbed: %w", err)
		}
	default:
		return fmt.Errorf("testbed: unknown system %d", int(tb.System))
	}
	return nil
}

// MutateObject bumps the origin version of url's object and publishes the
// purge on the invalidation bus, exactly as an origin-side content update
// would. It returns the new version. The edge copy is invalidated
// synchronously by the hub; downstream deliveries are best-effort and
// land after the bus latency.
func (tb *Testbed) MutateObject(url string) (int64, error) {
	v, ok := tb.cfg.Suite.Catalog.Mutate(url)
	if !ok {
		return 0, fmt.Errorf("testbed: mutate: unknown object %s", url)
	}
	err := coherence.Publish(tb.pub, transport.Addr{Host: NodeEdge, Port: 80}, coherence.Msg{URL: url, Version: v})
	return v, err
}

// Stop closes the system-under-test's listeners.
func (tb *Testbed) Stop() {
	if tb.AP != nil {
		tb.AP.Stop()
	}
	if tb.WiController != nil {
		tb.WiController.Stop()
	}
	if tb.WiAP != nil {
		tb.WiAP.Stop()
	}
}

// FetcherFor returns the per-app client for the system under test,
// registering the app's cacheable objects in the appropriate programming
// model.
func (tb *Testbed) FetcherFor(app *appmodel.App) appmodel.Fetcher {
	switch tb.System {
	case SystemAPECache, SystemAPECacheLRU:
		reg := apeclient.NewRegistry(app.Name)
		for _, o := range app.Objects() {
			_ = reg.Register(apeclient.Cacheable{ID: o.URL, Priority: o.Priority, TTL: o.TTL})
		}
		if tb.cfg.EnablePrefetch {
			// Successor edges of the request DAG become prefetch hints.
			for i, r := range app.Requests {
				for _, d := range r.Deps {
					_ = reg.DeclareDependents(app.Requests[d].Object.URL, app.Requests[i].Object.URL)
				}
			}
		}
		c := apeclient.New(apeclient.Config{
			Env:       tb.Sim,
			Host:      tb.Net.Node(NodeClient),
			Registry:  reg,
			APDNS:     tb.AP.DNSAddr(),
			APHTTP:    tb.AP.HTTPAddr(),
			Book:      tb.Book,
			Rng:       rand.New(rand.NewSource(tb.cfg.Seed + int64(len(tb.apeClients)) + 7)),
			Telemetry: tb.cfg.Telemetry,
		})
		tb.apeClients = append(tb.apeClients, c)
		return c
	case SystemWiCache:
		c := wicache.NewClient(tb.Sim, tb.Net.Node(NodeClient), app.Name,
			tb.WiController.Addr(), transport.Addr{Host: NodeEdge, Port: 80})
		for _, o := range app.Objects() {
			c.Declare(o.URL, o.TTL, o.Priority)
		}
		tb.wiClients = append(tb.wiClients, c)
		return c
	case SystemEdgeCache:
		c := edgecache.New(edgecache.Config{
			Env:       tb.Sim,
			Host:      tb.Net.Node(NodeClient),
			DNS:       tb.AP.DNSAddr(),
			Book:      tb.Book,
			Rng:       rand.New(rand.NewSource(tb.cfg.Seed + int64(len(tb.edgeClients)) + 13)),
			Telemetry: tb.cfg.Telemetry,
		})
		tb.edgeClients = append(tb.edgeClients, c)
		return c
	default:
		return nil
	}
}

// LookupStats merges every client's cache-lookup latency samples.
func (tb *Testbed) LookupStats() *metrics.LatencyStats {
	out := &metrics.LatencyStats{}
	for _, c := range tb.apeClients {
		out.Merge(&c.Stats().Lookup)
	}
	for _, c := range tb.wiClients {
		out.Merge(&c.Stats().Lookup)
	}
	for _, c := range tb.edgeClients {
		out.Merge(&c.Stats().Lookup)
	}
	return out
}

// RetrievalStats merges every client's cache-retrieval latency samples
// under the paper's Fig 11c definition (measured during hits; for the
// Edge Cache baseline every fetch is an edge hit).
func (tb *Testbed) RetrievalStats() *metrics.LatencyStats {
	out := &metrics.LatencyStats{}
	for _, c := range tb.apeClients {
		out.Merge(&c.Stats().Retrieval)
	}
	for _, c := range tb.wiClients {
		out.Merge(&c.Stats().Retrieval)
	}
	for _, c := range tb.edgeClients {
		out.Merge(&c.Stats().Retrieval)
	}
	return out
}

// HitStats merges every client's AP-cache hit observations (empty for the
// Edge Cache baseline, which has no AP cache).
func (tb *Testbed) HitStats() *metrics.HitStats {
	out := &metrics.HitStats{}
	for _, c := range tb.apeClients {
		out.Merge(&c.Stats().Hits)
	}
	for _, c := range tb.wiClients {
		out.Merge(&c.Stats().Hits)
	}
	return out
}
