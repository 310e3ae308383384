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

// FleetConfig assembles an N-AP fleet observability testbed: many
// APE-CACHE APs under one Wi-Cache controller running the fleet store,
// every tier pushing telemetry snapshots over the control channel.
//
// This topology is separate from the Fig-9 experiment testbed on
// purpose: snapshot pushes are wire-visible traffic, so the experiment
// testbed never enables them (Tables 4/5/6 and the coherence sweep stay
// bit-identical to runs without telemetry), while the fleet testbed
// exists to exercise exactly that traffic.
type FleetConfig struct {
	// NumAPs is the fleet size (default 16).
	NumAPs int
	// Seed drives the simnet and traffic RNG (default 1).
	Seed int64
}

func (c *FleetConfig) applyDefaults() {
	if c.NumAPs <= 0 {
		c.NumAPs = 16
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Per-AP fleet parameters.
const (
	fleetCacheCapacity    = 5 << 20         // AP cache size
	fleetWarmObjects      = 8               // each AP's working-set size
	fleetSnapshotInterval = 5 * time.Second // telemetry push cadence
	fleetSampleEvery      = 4               // trace one request in n (APs and clients)
)

// coldPoolSize is the per-AP brownout URL pool: unique cold objects a
// browned-out AP's client cycles through (half resolvable at the edge,
// half unknown, so both slow delegations and delegation failures show).
const coldPoolSize = 512

// Fleet is a running fleet testbed. Build it inside a sim task with
// NewFleet; drive traffic with Drive and inject faults with
// SetBrownout.
type Fleet struct {
	Sim *vclock.Sim
	Net *simnet.Network
	Cfg FleetConfig

	Controller *wicache.Controller
	Store      *wicache.FleetStore
	// ControllerTel is the controller's bundle: stitched traces land in
	// its Tracer, alert transitions in its Events.
	ControllerTel *telemetry.Telemetry

	APs    []*apcache.AP
	APTels []*telemetry.Telemetry

	Edge      *objstore.EdgeCacheServer
	Origin    *objstore.OriginServer
	EdgeTel   *telemetry.Telemetry
	ClientTel *telemetry.Telemetry

	clients   []*httplite.Client
	warm      [][]string
	brownout  []bool
	coldNext  []int
	rng       *rand.Rand
	clientPsh *telemetry.Pusher
	edgePsh   *telemetry.Pusher
}

func fleetAPName(i int) string     { return fmt.Sprintf("ap%02d", i) }
func fleetClientName(i int) string { return fmt.Sprintf("client%02d", i) }

// fleetEdgePath is the healthy AP-to-edge uplink; brownoutPath replaces
// it during an injected brownout.
var (
	fleetEdgePath = simnet.Path{Latency: 12 * time.Millisecond, Hops: 7, Bandwidth: 18 << 20}
	brownoutPath  = simnet.Path{Latency: 250 * time.Millisecond, Hops: 7, Bandwidth: 2 << 20}
)

// NewFleet builds and starts the whole fleet topology. Call from
// inside a sim task (sim.Run).
func NewFleet(sim *vclock.Sim, cfg FleetConfig) (*Fleet, error) {
	cfg.applyDefaults()
	f := &Fleet{
		Sim: sim, Cfg: cfg,
		Net:      simnet.New(sim, cfg.Seed),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		brownout: make([]bool, cfg.NumAPs),
		coldNext: make([]int, cfg.NumAPs),
	}

	const (
		edgeNode   = "edge"
		originNode = "origin"
		ctlNode    = "fleet-ctl"
	)
	wifi := simnet.Path{Latency: 2500 * time.Microsecond, Hops: 1, Bandwidth: 40 << 20}
	for i := 0; i < cfg.NumAPs; i++ {
		ap, client := fleetAPName(i), fleetClientName(i)
		f.Net.SetLink(client, ap, wifi)
		f.Net.SetLink(ap, edgeNode, fleetEdgePath)
		f.Net.SetLink(ap, ctlNode, simnet.Path{Latency: 10 * time.Millisecond, Hops: 11, Bandwidth: 100 << 20})
	}
	f.Net.SetLink(edgeNode, originNode, simnet.Path{Latency: 25 * time.Millisecond, Hops: 12, Bandwidth: 100 << 20})
	f.Net.SetLink(edgeNode, ctlNode, simnet.Path{Latency: 12 * time.Millisecond, Hops: 10, Bandwidth: 100 << 20})
	f.Net.SetLink(fleetClientName(0), ctlNode, simnet.Path{Latency: 11 * time.Millisecond, Hops: 12, Bandwidth: 40 << 20})

	// Catalog: a warm working set per AP plus the shared cold pool.
	var objs []*objstore.Object
	f.warm = make([][]string, cfg.NumAPs)
	for i := 0; i < cfg.NumAPs; i++ {
		app := fmt.Sprintf("app%02d", i)
		for j := 0; j < fleetWarmObjects; j++ {
			u := fmt.Sprintf("http://%s.fleet.example/obj%d", app, j)
			objs = append(objs, &objstore.Object{URL: u, App: app, Size: 16 << 10,
				TTL: time.Hour, Priority: objstore.PriorityHigh, OriginDelay: 5 * time.Millisecond})
			f.warm[i] = append(f.warm[i], u)
		}
	}
	for k := 0; k < coldPoolSize; k++ {
		objs = append(objs, &objstore.Object{URL: fmt.Sprintf("http://cold.fleet.example/obj%d", k),
			App: "cold", Size: 16 << 10, TTL: time.Hour, Priority: objstore.PriorityLow,
			OriginDelay: 5 * time.Millisecond})
	}
	catalog := objstore.NewCatalog(objs...)

	f.Origin = objstore.NewOriginServer(sim, catalog)
	if _, err := f.Origin.Run(f.Net.Node(originNode), 80); err != nil {
		return nil, fmt.Errorf("fleet origin: %w", err)
	}
	f.Edge = objstore.NewEdgeCacheServer(sim, f.Net.Node(edgeNode), catalog, transport.Addr{Host: originNode, Port: 80})
	f.Edge.Prepopulate()
	f.EdgeTel = telemetry.New(sim)
	f.Edge.Instrument(f.EdgeTel)
	f.Origin.Instrument(f.EdgeTel)
	if _, err := f.Edge.Run(f.Net.Node(edgeNode), 80); err != nil {
		return nil, fmt.Errorf("fleet edge: %w", err)
	}

	f.ControllerTel = telemetry.New(sim)
	f.Controller = wicache.NewController(sim, f.Net.Node(ctlNode))
	f.Controller.Instrument(f.ControllerTel)
	f.Store = f.Controller.EnableFleet(wicache.FleetConfig{SnapshotInterval: fleetSnapshotInterval})
	if err := f.Controller.Start(0); err != nil {
		return nil, fmt.Errorf("fleet controller: %w", err)
	}
	ctlAddr := f.Controller.Addr()

	edgeAddr := transport.Addr{Host: edgeNode, Port: 80}
	for i := 0; i < cfg.NumAPs; i++ {
		tel := telemetry.New(sim)
		tel.Tracer.SetSampleEvery(fleetSampleEvery)
		ap := apcache.New(apcache.Config{
			Env:              sim,
			Host:             f.Net.Node(fleetAPName(i)),
			EdgeAddr:         edgeAddr,
			CacheCapacity:    fleetCacheCapacity,
			Rng:              rand.New(rand.NewSource(cfg.Seed + int64(i) + 101)),
			HTTPProcessing:   900 * time.Microsecond,
			Telemetry:        tel,
			FleetAddr:        ctlAddr,
			SnapshotInterval: fleetSnapshotInterval,
		})
		if err := ap.Start(); err != nil {
			return nil, fmt.Errorf("fleet %s: %w", fleetAPName(i), err)
		}
		f.APs = append(f.APs, ap)
		f.APTels = append(f.APTels, tel)
		f.clients = append(f.clients, httplite.NewClient(f.Net.Node(fleetClientName(i))))
	}

	// The edge tier and the client driver push snapshots too, so their
	// spans join stitched traces at the controller.
	var err error
	if f.edgePsh, err = f.Edge.PushSnapshots(f.Net.Node(edgeNode), ctlAddr, fleetSnapshotInterval); err != nil {
		return nil, fmt.Errorf("fleet edge pusher: %w", err)
	}
	f.ClientTel = telemetry.New(sim)
	f.ClientTel.Tracer.SetSampleEvery(fleetSampleEvery)
	f.clientPsh, err = telemetry.NewPusher(telemetry.PushConfig{
		Env: sim, Tel: f.ClientTel, Node: "clients", Host: f.Net.Node(fleetClientName(0)),
		Target: ctlAddr, Interval: fleetSnapshotInterval,
	})
	if err != nil {
		return nil, fmt.Errorf("fleet client pusher: %w", err)
	}
	f.clientPsh.Start()
	return f, nil
}

// Stop halts pushers and listeners.
func (f *Fleet) Stop() {
	f.clientPsh.Stop()
	f.edgePsh.Stop()
	for _, ap := range f.APs {
		ap.Stop()
	}
	f.Controller.Stop()
}

// SetBrownout injects (or clears) a brownout at AP i: the edge uplink
// degrades to brownoutPath and the AP's client switches to unique cold
// URLs, collapsing its hit ratio and slowing its delegations. SetLink
// is legal mid-run from sim tasks, so this models a live fault.
func (f *Fleet) SetBrownout(i int, on bool) {
	f.brownout[i] = on
	path := fleetEdgePath
	if on {
		path = brownoutPath
	}
	f.Net.SetLink(fleetAPName(i), "edge", path)
}

// Drive runs the client traffic loop for d of virtual time: every tick
// each AP's client fetches one URL — from its warm working set, or from
// the cold pool while browned out — via GET /cache with delegation
// fallback on miss.
func (f *Fleet) Drive(d time.Duration) {
	const tick = time.Second
	deadline := f.Sim.Now().Add(d)
	for f.Sim.Now().Before(deadline) {
		for i := range f.APs {
			f.getOne(i)
		}
		f.Sim.Sleep(tick)
	}
}

// getOne issues one request for AP i's client.
func (f *Fleet) getOne(i int) {
	app := fmt.Sprintf("app%02d", i)
	var target string
	if f.brownout[i] {
		k := f.coldNext[i]
		f.coldNext[i]++
		if k%2 == 0 {
			// Known but never-repeated: a miss with a slow delegation.
			target = fmt.Sprintf("http://cold.fleet.example/obj%d", (k/2)%coldPoolSize)
		} else {
			// Unknown at the edge: the delegation fails outright.
			target = fmt.Sprintf("http://cold.fleet.example/missing%d", k)
		}
	} else {
		target = f.warm[i][f.rng.Intn(len(f.warm[i]))]
	}

	apAddr := f.APs[i].HTTPAddr()
	trace := f.ClientTel.Tracer.NewTrace()
	start := f.Sim.Now()
	req := httplite.NewRequest("GET", apAddr.Host, "/cache?u="+url.QueryEscape(target)+"&app="+app)
	if trace != 0 {
		req.Set(telemetry.TraceHeader, trace.String())
	}
	resp, err := f.clients[i].Do(apAddr, req)
	served := err == nil && resp.Status == 200
	if !served {
		dreq := httplite.NewRequest("POST", apAddr.Host, "/delegate")
		dreq.Body = []byte(target)
		dreq.Set("X-Ape-TTL", "60")
		dreq.Set("X-Ape-App", app)
		if trace != 0 {
			dreq.Set(telemetry.TraceHeader, trace.String())
		}
		_, _ = f.clients[i].Do(apAddr, dreq)
	}
	f.ClientTel.Span(trace, "client-get", fleetClientName(i), start, f.Sim.Now().Sub(start), "url="+target)
}
