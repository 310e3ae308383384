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
	"apecache/internal/transport"
	"apecache/internal/vclock"
	"apecache/internal/wicache"
)

// MeshConfig assembles the cooperative-mesh testbed: N APE-CACHE APs on
// one LAN, a colocated Wi-Cache controller running the mesh directory,
// and a shared content pool whose working set rotates across the APs so
// every AP's first touch of an object is someone else's old news.
//
// Like the fleet topology, this is separate from the Fig-9 experiment
// testbed on purpose: summary publications and directory lookups are
// wire-visible traffic, so the baseline experiments never enable them.
type MeshConfig struct {
	// NumAPs is the mesh size (default 4).
	NumAPs int
	// Seed drives the simnet RNG (default 1).
	Seed int64
	// MeshEnabled wires the APs to the mesh directory; off means the
	// same topology and traffic with every miss delegated to the edge —
	// the baseline the coop experiment compares against.
	MeshEnabled bool
}

func (c *MeshConfig) applyDefaults() {
	if c.NumAPs <= 0 {
		c.NumAPs = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Mesh workload and per-AP parameters.
const (
	meshCacheCapacity   = 5 << 20         // AP cache size
	meshSharedObjects   = 24              // rotating content pool size
	meshObjectSize      = 24 << 10        // per-object payload
	meshSummaryInterval = 2 * time.Second // mesh publish cadence
)

// meshStride is the per-AP phase shift of the rotating request pattern:
// AP i requests object (tick + i*meshStride) mod pool. Coprime with the
// pool size, so every AP eventually touches every object, and large
// enough that a summary published at meshSummaryInterval has landed
// before a peer asks for the object.
const meshStride = 5

// Mesh is a running cooperative-mesh testbed. Build it inside a sim
// task with NewMesh; drive traffic with Drive.
type Mesh struct {
	Sim *vclock.Sim
	Net *simnet.Network
	Cfg MeshConfig

	Controller *wicache.Controller
	APs        []*apcache.AP
	Edge       *objstore.EdgeCacheServer
	Origin     *objstore.OriginServer

	// Requests counts client fetches issued; LocalHits the ones served
	// straight from the client's own AP cache.
	Requests  int
	LocalHits int

	clients []*httplite.Client
	pool    []string
	tick    int
}

func meshAPName(i int) string { return fmt.Sprintf("ap%02d", i) }

// NewMesh builds and starts the mesh topology. Call from inside a sim
// task (sim.Run).
func NewMesh(sim *vclock.Sim, cfg MeshConfig) (*Mesh, error) {
	cfg.applyDefaults()
	m := &Mesh{Sim: sim, Cfg: cfg, Net: simnet.New(sim, cfg.Seed)}

	const (
		edgeNode   = "edge"
		originNode = "origin"
		ctlNode    = "mesh-ctl"
	)
	// One LAN: APs reach each other and the colocated controller in a
	// couple of milliseconds, while the edge stays a 12 ms uplink away —
	// the gap the peer tier exists to exploit.
	wifi := simnet.Path{Latency: 2500 * time.Microsecond, Hops: 1, Bandwidth: 40 << 20}
	lan := simnet.Path{Latency: 1500 * time.Microsecond, Hops: 2, Bandwidth: 100 << 20}
	for i := 0; i < cfg.NumAPs; i++ {
		ap := meshAPName(i)
		m.Net.SetLink(fleetClientName(i), ap, wifi)
		m.Net.SetLink(ap, edgeNode, fleetEdgePath)
		m.Net.SetLink(ap, ctlNode, simnet.Path{Latency: 2 * time.Millisecond, Hops: 2, Bandwidth: 100 << 20})
		for j := 0; j < i; j++ {
			m.Net.SetLink(ap, meshAPName(j), lan)
		}
	}
	m.Net.SetLink(edgeNode, originNode, simnet.Path{Latency: 25 * time.Millisecond, Hops: 12, Bandwidth: 100 << 20})

	// Shared catalog: every AP's clients draw from the same pool, phase
	// shifted, so the mesh has real overlap to exploit.
	var objs []*objstore.Object
	for k := 0; k < meshSharedObjects; k++ {
		u := fmt.Sprintf("http://shared.mesh.example/obj%d", k)
		objs = append(objs, &objstore.Object{URL: u, App: "mesh", Size: meshObjectSize,
			TTL: time.Hour, Priority: objstore.PriorityHigh, OriginDelay: 5 * time.Millisecond})
		m.pool = append(m.pool, u)
	}
	catalog := objstore.NewCatalog(objs...)

	m.Origin = objstore.NewOriginServer(sim, catalog)
	if _, err := m.Origin.Run(m.Net.Node(originNode), 80); err != nil {
		return nil, fmt.Errorf("mesh origin: %w", err)
	}
	m.Edge = objstore.NewEdgeCacheServer(sim, m.Net.Node(edgeNode), catalog, transport.Addr{Host: originNode, Port: 80})
	m.Edge.Prepopulate()
	if _, err := m.Edge.Run(m.Net.Node(edgeNode), 80); err != nil {
		return nil, fmt.Errorf("mesh edge: %w", err)
	}

	m.Controller = wicache.NewController(sim, m.Net.Node(ctlNode))
	if cfg.MeshEnabled {
		m.Controller.EnableMesh()
	}
	if err := m.Controller.Start(0); err != nil {
		return nil, fmt.Errorf("mesh controller: %w", err)
	}

	edgeAddr := transport.Addr{Host: edgeNode, Port: 80}
	for i := 0; i < cfg.NumAPs; i++ {
		apCfg := apcache.Config{
			Env:            sim,
			Host:           m.Net.Node(meshAPName(i)),
			EdgeAddr:       edgeAddr,
			CacheCapacity:  meshCacheCapacity,
			Rng:            rand.New(rand.NewSource(cfg.Seed + int64(i) + 101)),
			HTTPProcessing: 900 * time.Microsecond,
			NodeName:       meshAPName(i),
		}
		if cfg.MeshEnabled {
			apCfg.MeshAddr = m.Controller.Addr()
			apCfg.MeshInterval = meshSummaryInterval
		}
		ap := apcache.New(apCfg)
		if err := ap.Start(); err != nil {
			return nil, fmt.Errorf("mesh %s: %w", meshAPName(i), err)
		}
		m.APs = append(m.APs, ap)
		m.clients = append(m.clients, httplite.NewClient(m.Net.Node(fleetClientName(i))))
	}
	return m, nil
}

// Stop halts the APs and the controller.
func (m *Mesh) Stop() {
	for _, ap := range m.APs {
		ap.Stop()
	}
	m.Controller.Stop()
}

// Drive runs the rotating client traffic for the given number of
// one-second ticks: each tick, client i fetches pool object
// (tick + i*meshStride) mod pool — GET /cache first, delegation on miss.
func (m *Mesh) Drive(ticks int) {
	for t := 0; t < ticks; t++ {
		for i := range m.APs {
			m.getOne(i)
		}
		m.tick++
		m.Sim.Sleep(time.Second)
	}
}

// getOne issues one request for AP i's client.
func (m *Mesh) getOne(i int) {
	target := m.pool[(m.tick+i*meshStride)%len(m.pool)]
	m.Requests++
	apAddr := m.APs[i].HTTPAddr()
	resp, err := m.clients[i].Get(apAddr, apAddr.Host, "/cache?u="+url.QueryEscape(target)+"&app=mesh")
	if err == nil && resp.Status == 200 {
		m.LocalHits++
		return
	}
	dreq := httplite.NewRequest("POST", apAddr.Host, "/delegate")
	dreq.Body = []byte(target)
	dreq.Set("X-Ape-TTL", "60")
	dreq.Set("X-Ape-App", "mesh")
	_, _ = m.clients[i].Do(apAddr, dreq)
}

// PeerHits sums misses served from mesh peers across the fleet.
func (m *Mesh) PeerHits() int {
	total := 0
	for _, ap := range m.APs {
		total += ap.Snapshot().PeerHits
	}
	return total
}

// PeerFallbacks sums peer lookups that fell back to the edge.
func (m *Mesh) PeerFallbacks() int {
	total := 0
	for _, ap := range m.APs {
		total += ap.Snapshot().PeerFallbacks
	}
	return total
}

// PeerBytes sums payload bytes carried over the AP-to-AP path.
func (m *Mesh) PeerBytes() int64 {
	var total int64
	for _, ap := range m.APs {
		total += ap.Snapshot().PeerBytes
	}
	return total
}

// BackhaulBytes sums payload bytes delegated over the AP-to-edge uplink
// — the traffic the mesh exists to reduce.
func (m *Mesh) BackhaulBytes() int64 {
	var total int64
	for _, ap := range m.APs {
		total += ap.Snapshot().DelegationBytes
	}
	return total
}
