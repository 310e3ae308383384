package testbed

import (
	"fmt"
	"math/rand"
	"net/url"
	"time"

	"apecache/internal/apcache"
	"apecache/internal/httplite"
	"apecache/internal/objstore"
	"apecache/internal/simnet"
	"apecache/internal/telemetry"
	"apecache/internal/transport"
	"apecache/internal/vclock"
	"apecache/internal/wicache"
)

// Cluster is a running N-AP testbed: every AP has one client over WiFi,
// and all of them share one prepopulated edge and origin and one
// Wi-Cache controller. The fleet and mesh testbeds are two specs of it.
// Build it inside a sim task; drive traffic with Drive or DriveTicks.
//
// Like the fleet and mesh topologies built on it, this is separate from
// the Fig-9 experiment testbed on purpose: snapshot pushes, summary
// publications and directory lookups are wire-visible traffic, so the
// baseline experiments never enable them.
type Cluster struct {
	Sim *vclock.Sim
	Net *simnet.Network

	Controller *wicache.Controller
	// Store is the controller's fleet store (nil without the fleet plane).
	Store *wicache.FleetStore
	// ControllerTel is the controller's bundle: stitched traces land in
	// its Tracer, the fleet counters in its Metrics.
	ControllerTel *telemetry.Telemetry

	APs    []*apcache.AP
	APTels []*telemetry.Telemetry

	Edge      *objstore.EdgeCacheServer
	Origin    *objstore.OriginServer
	EdgeTel   *telemetry.Telemetry
	ClientTel *telemetry.Telemetry

	// Requests counts client fetches issued; LocalHits the ones served
	// straight from the client's own AP cache.
	Requests  int
	LocalHits int

	clients   []*httplite.Client
	next      func(tick, i int) (url, app string)
	ticks     int
	clientPsh *telemetry.Pusher
	edgePsh   *telemetry.Pusher
}

// clusterSpec describes one cluster topology as data.
type clusterSpec struct {
	name    string // error prefix; the controller node is name+"-ctl"
	numAPs  int
	seed    int64
	ctlLink simnet.Path  // AP to controller
	lan     *simnet.Path // AP to AP, when the APs share a LAN
	extra   []clusterLink
	catalog []*objstore.Object
	// fleet runs the fleet plane: every tier pushes telemetry snapshots
	// to the controller's fleet store, and client requests are traced.
	fleet bool
	// mesh runs the mesh directory at the controller and wires the APs
	// to it.
	mesh bool
	// bareNames names each AP's node "apNN" instead of the AP default.
	bareNames bool
	// next picks client i's URL and app on the given tick.
	next func(tick, i int) (url, app string)
}

type clusterLink struct {
	a, b string
	path simnet.Path
}

// Cluster parameters shared by every spec.
const (
	clusterEdgeNode       = "edge"
	clusterOriginNode     = "origin"
	clusterCacheCapacity  = 5 << 20         // AP cache size
	fleetSnapshotInterval = 5 * time.Second // telemetry push cadence
	fleetSampleEvery      = 4               // trace one request in n (APs and clients)
)

func clusterAPName(i int) string     { return fmt.Sprintf("ap%02d", i) }
func clusterClientName(i int) string { return fmt.Sprintf("client%02d", i) }

// fleetEdgePath is the healthy AP-to-edge uplink; brownoutPath replaces
// it during an injected brownout.
var (
	fleetEdgePath = simnet.Path{Latency: 12 * time.Millisecond, Hops: 7, Bandwidth: 18 << 20}
	brownoutPath  = simnet.Path{Latency: 250 * time.Millisecond, Hops: 7, Bandwidth: 2 << 20}
)

// newCluster builds and starts the topology sp describes. Call from
// inside a sim task (sim.Run).
func newCluster(sim *vclock.Sim, sp clusterSpec) (*Cluster, error) {
	c := &Cluster{Sim: sim, Net: simnet.New(sim, sp.seed), next: sp.next}
	ctlNode := sp.name + "-ctl"

	wifi := simnet.Path{Latency: 2500 * time.Microsecond, Hops: 1, Bandwidth: 40 << 20}
	for i := 0; i < sp.numAPs; i++ {
		ap := clusterAPName(i)
		c.Net.SetLink(clusterClientName(i), ap, wifi)
		c.Net.SetLink(ap, clusterEdgeNode, fleetEdgePath)
		c.Net.SetLink(ap, ctlNode, sp.ctlLink)
		for j := 0; sp.lan != nil && j < i; j++ {
			c.Net.SetLink(ap, clusterAPName(j), *sp.lan)
		}
	}
	c.Net.SetLink(clusterEdgeNode, clusterOriginNode, simnet.Path{Latency: 25 * time.Millisecond, Hops: 12, Bandwidth: 100 << 20})
	for _, l := range sp.extra {
		c.Net.SetLink(l.a, l.b, l.path)
	}
	catalog := objstore.NewCatalog(sp.catalog...)

	c.Origin = objstore.NewOriginServer(sim, catalog)
	if _, err := c.Origin.Run(c.Net.Node(clusterOriginNode), 80); err != nil {
		return nil, fmt.Errorf("%s origin: %w", sp.name, err)
	}
	c.Edge = objstore.NewEdgeCacheServer(sim, c.Net.Node(clusterEdgeNode), catalog, transport.Addr{Host: clusterOriginNode, Port: 80})
	c.Edge.Prepopulate()
	if sp.fleet {
		c.EdgeTel = telemetry.New(sim)
		c.Edge.Instrument(c.EdgeTel)
		c.Origin.Instrument(c.EdgeTel)
	}
	if _, err := c.Edge.Run(c.Net.Node(clusterEdgeNode), 80); err != nil {
		return nil, fmt.Errorf("%s edge: %w", sp.name, err)
	}

	c.Controller = wicache.NewController(sim, c.Net.Node(ctlNode))
	if sp.fleet {
		c.ControllerTel = telemetry.New(sim)
		c.Controller.Instrument(c.ControllerTel)
		c.Store = c.Controller.EnableFleet(wicache.FleetConfig{SnapshotInterval: fleetSnapshotInterval})
	}
	if sp.mesh {
		c.Controller.EnableMesh()
	}
	if err := c.Controller.Start(0); err != nil {
		return nil, fmt.Errorf("%s controller: %w", sp.name, err)
	}
	ctlAddr := c.Controller.Addr()

	for i := 0; i < sp.numAPs; i++ {
		apCfg := apcache.Config{
			Env:            sim,
			Host:           c.Net.Node(clusterAPName(i)),
			EdgeAddr:       transport.Addr{Host: clusterEdgeNode, Port: 80},
			CacheCapacity:  clusterCacheCapacity,
			Rng:            rand.New(rand.NewSource(sp.seed + int64(i) + 101)),
			HTTPProcessing: 900 * time.Microsecond,
		}
		if sp.bareNames {
			apCfg.NodeName = clusterAPName(i)
		}
		if sp.fleet {
			apCfg.Telemetry = telemetry.New(sim)
			apCfg.Telemetry.Tracer.SetSampleEvery(fleetSampleEvery)
			apCfg.FleetAddr = ctlAddr
			apCfg.SnapshotInterval = fleetSnapshotInterval
			c.APTels = append(c.APTels, apCfg.Telemetry)
		}
		if sp.mesh {
			apCfg.MeshAddr = ctlAddr
			apCfg.MeshInterval = meshSummaryInterval
		}
		ap := apcache.New(apCfg)
		if err := ap.Start(); err != nil {
			return nil, fmt.Errorf("%s %s: %w", sp.name, clusterAPName(i), err)
		}
		c.APs = append(c.APs, ap)
		c.clients = append(c.clients, httplite.NewClient(c.Net.Node(clusterClientName(i))))
	}
	if !sp.fleet {
		return c, nil
	}

	// The edge tier and the client driver push snapshots too, so their
	// spans join stitched traces at the controller.
	var err error
	if c.edgePsh, err = c.Edge.PushSnapshots(c.Net.Node(clusterEdgeNode), ctlAddr, fleetSnapshotInterval); err != nil {
		return nil, fmt.Errorf("%s edge pusher: %w", sp.name, err)
	}
	c.ClientTel = telemetry.New(sim)
	c.ClientTel.Tracer.SetSampleEvery(fleetSampleEvery)
	c.clientPsh, err = telemetry.NewPusher(telemetry.PushConfig{
		Env: sim, Tel: c.ClientTel, Node: "clients", Host: c.Net.Node(clusterClientName(0)),
		Target: ctlAddr, Interval: fleetSnapshotInterval,
	})
	if err != nil {
		return nil, fmt.Errorf("%s client pusher: %w", sp.name, err)
	}
	c.clientPsh.Start()
	return c, nil
}

// Stop halts pushers, APs and the controller, and reports any of their
// tasks that is still live.
func (c *Cluster) Stop() error {
	if c.clientPsh != nil {
		c.clientPsh.Stop()
		c.edgePsh.Stop()
	}
	for _, ap := range c.APs {
		ap.Stop()
	}
	c.Controller.Stop()
	return leaked(c.Sim)
}

// Drive runs client traffic for d of virtual time.
func (c *Cluster) Drive(d time.Duration) {
	deadline := c.Sim.Now().Add(d)
	for c.Sim.Now().Before(deadline) {
		c.tick()
	}
}

// DriveTicks runs client traffic for n one-second ticks.
func (c *Cluster) DriveTicks(n int) {
	for range n {
		c.tick()
	}
}

// tick has every client fetch one URL — GET /cache first, delegation on
// a miss — then sleeps one second.
func (c *Cluster) tick() {
	for i := range c.APs {
		c.get(i)
	}
	c.ticks++
	c.Sim.Sleep(time.Second)
}

// get issues client i's request for this tick.
func (c *Cluster) get(i int) {
	target, app := c.next(c.ticks, i)
	c.Requests++
	apAddr := c.APs[i].HTTPAddr()
	var trace telemetry.TraceID
	if c.ClientTel != nil {
		trace = c.ClientTel.Tracer.NewTrace()
	}
	start := c.Sim.Now()
	req := httplite.NewRequest("GET", apAddr.Host, "/cache?u="+url.QueryEscape(target)+"&app="+app)
	if trace != 0 {
		req.Set(telemetry.TraceHeader, trace.String())
	}
	resp, err := c.clients[i].Do(apAddr, req)
	if err == nil && resp.Status == 200 {
		c.LocalHits++
	} else {
		dreq := httplite.NewRequest("POST", apAddr.Host, "/delegate")
		dreq.Body = []byte(target)
		dreq.Set("X-Ape-TTL", "60")
		dreq.Set("X-Ape-App", app)
		if trace != 0 {
			dreq.Set(telemetry.TraceHeader, trace.String())
		}
		_, _ = c.clients[i].Do(apAddr, dreq)
	}
	c.ClientTel.Span(trace, "client-get", clusterClientName(i), start, c.Sim.Now().Sub(start), "url="+target)
}

// MeshTotals sums the APs' peer-tier and backhaul counters.
type MeshTotals struct {
	// PeerHits counts misses served from mesh peers; PeerFallbacks peer
	// lookups that fell back to the edge.
	PeerHits      int
	PeerFallbacks int
	// PeerBytes is payload carried over the AP-to-AP path; BackhaulBytes
	// payload delegated over the AP-to-edge uplink — the traffic the mesh
	// exists to reduce.
	PeerBytes     int64
	BackhaulBytes int64
}

// MeshTotals sums the peer-tier and backhaul counters across the APs.
func (c *Cluster) MeshTotals() MeshTotals {
	var t MeshTotals
	for _, ap := range c.APs {
		s := ap.Snapshot()
		t.PeerHits += s.PeerHits
		t.PeerFallbacks += s.PeerFallbacks
		t.PeerBytes += s.PeerBytes
		t.BackhaulBytes += s.DelegationBytes
	}
	return t
}
