package testbed

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"apecache/internal/coherence"
	"apecache/internal/httplite"
	"apecache/internal/metrics"
	"apecache/internal/simnet"
	"apecache/internal/transport"
	"apecache/internal/vclock"
	"apecache/internal/wicache"
)

// StormConfig assembles the fleet-storm testbed: an edge coherence hub
// over stormControllers Wi-Cache controllers, each fronting A purge-sink
// APs (the default 16x64 = 1024 APs), hit with a concurrent purge storm
// plus one flash-crowd object resident on a whole controller's fleet.
//
// The same topology runs in two fan-out modes. Legacy relays every
// publication to every controller and from there to every AP, one POST
// per message (wire cost ~ fleet size per purge). Sharded enables the
// dispatcher at both tiers: the hub routes each purge to the domain's
// shard subscribers in coalesced batches, and controllers relay only to
// the APs recorded as holding the object. The effective purge set —
// resident copies actually evicted — must come out identical either way.
type StormConfig struct {
	// APsPerController sizes each controller's AP fleet (default 64).
	APsPerController int
	// Objects is the purge-storm size: distinct objects purged, spread
	// round-robin over the domains (default 96).
	Objects int
	// Sharded enables the dispatcher at the hub and every controller;
	// false runs the legacy goroutine-per-delivery fan-out.
	Sharded bool
	// Seed drives the simnet and holder placement (default 1).
	Seed int64
}

func (c *StormConfig) applyDefaults() {
	if c.APsPerController <= 0 {
		c.APsPerController = 64
	}
	if c.Objects <= 0 {
		c.Objects = 96
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Storm topology and timing.
const (
	// stormControllers is the Wi-Cache controller count.
	stormControllers = 16
	// stormDomains is the object-domain count, assigned round-robin to
	// controllers.
	stormDomains = 64
	// stormHoldersPerObject seeds that many resident copies per object
	// on the home controller's APs (capped at APsPerController). Object
	// 0, the flash crowd, is resident on every AP of its home controller.
	stormHoldersPerObject = 8
	// stormSettle is the post-storm drain time before counters are read:
	// several flush ticks plus both relay hops.
	stormSettle = 2 * time.Second
)

// StormResult is one storm run's outcome.
type StormResult struct {
	FleetSize    int
	Objects      int
	Publications int
	// PubLatency samples the origin's view of each publish call (request
	// out to 200 back) — the paper's claim is that this stays flat as the
	// fleet grows.
	PubLatency metrics.LatencyStats
	// HubWire counts wire POSTs hub -> controllers, APWire wire POSTs
	// controllers -> APs; RelayMessages is their sum — the amplification
	// the sharded plane is built to collapse.
	HubWire       int64
	APWire        int64
	RelayMessages int64
	// Effective is the sorted "ap url" set of resident copies actually
	// purged — the correctness invariant across fan-out modes.
	Effective []string
	// Dropped and Evicted surface dispatcher losses (expected zero in a
	// healthy storm).
	Dropped int64
	Evicted int64
}

// stormAP is a purge-sink AP: a /purge endpoint over a seeded resident
// set, recording wire requests and effective (resident) purges.
type stormAP struct {
	name string
	addr transport.Addr

	mu       sync.Mutex
	resident map[string]bool
	purged   map[string]bool
	wireReqs int
}

func (a *stormAP) handlePurge(req *httplite.Request) *httplite.Response {
	msgs, err := coherence.ParseMsgs(req.Body)
	if err != nil {
		return httplite.NewResponse(400, []byte(err.Error()))
	}
	a.mu.Lock()
	a.wireReqs++
	for _, msg := range msgs {
		if a.resident[msg.URL] {
			delete(a.resident, msg.URL)
			a.purged[msg.URL] = true
		}
	}
	a.mu.Unlock()
	return httplite.NewResponse(200, nil)
}

func stormDomain(d int) string { return fmt.Sprintf("dom%02d.storm.example", d) }
func stormObjURL(k int) string {
	return fmt.Sprintf("http://%s/obj%d", stormDomain(k%stormDomains), k)
}
func stormCtlName(c int) string   { return fmt.Sprintf("ctl%02d", c) }
func stormAPName(c, a int) string { return fmt.Sprintf("c%02da%02d", c, a) }

// RunStorm builds the storm topology on a fresh simulator, seeds the
// flash crowd, fires the purge storm, and returns the drained counters.
// Links are latency-only, so the aggregate counters and the effective
// purge set are deterministic for a given config.
func RunStorm(cfg StormConfig) (*StormResult, error) {
	cfg.applyDefaults()
	res := &StormResult{
		FleetSize: stormControllers * cfg.APsPerController,
		Objects:   cfg.Objects,
	}
	if err := vclock.Simulate("fleet-storm", func(sim *vclock.Sim) error {
		return runStorm(sim, cfg, res)
	}); err != nil {
		return nil, err
	}
	return res, nil
}

func runStorm(sim *vclock.Sim, cfg StormConfig, res *StormResult) error {
	const (
		hubNode    = "hub"
		originNode = "origin"
	)
	net := simnet.New(sim, cfg.Seed)
	net.SetLink(originNode, hubNode, simnet.Path{Latency: 5 * time.Millisecond, Hops: 3})
	for c := 0; c < stormControllers; c++ {
		net.SetLink(hubNode, stormCtlName(c), simnet.Path{Latency: 10 * time.Millisecond, Hops: 8})
		for a := 0; a < cfg.APsPerController; a++ {
			net.SetLink(stormCtlName(c), stormAPName(c, a), simnet.Path{Latency: 2500 * time.Microsecond, Hops: 2})
		}
	}

	// The hub shares no edge cache here: the storm exercises the bus
	// plane alone.
	hub := coherence.NewHub(sim, net.Node(hubNode), nil)
	if cfg.Sharded {
		hub.EnableDispatch(coherence.DispatchConfig{})
	}
	hubL, err := net.Node(hubNode).Listen(80)
	if err != nil {
		return fmt.Errorf("storm hub: %w", err)
	}
	defer hubL.Close()
	sim.Go("storm.hub", func() { httplite.NewServer(sim, hub).Serve(hubL) })
	hubAddr := transport.Addr{Host: hubNode, Port: 80}

	// Controllers and their purge-sink APs.
	rng := rand.New(rand.NewSource(cfg.Seed))
	controllers := make([]*wicache.Controller, stormControllers)
	aps := make([][]*stormAP, stormControllers)
	for c := 0; c < stormControllers; c++ {
		ctl := wicache.NewController(sim, net.Node(stormCtlName(c)))
		if cfg.Sharded {
			ctl.EnableDispatch(coherence.DispatchConfig{})
		}
		for a := 0; a < cfg.APsPerController; a++ {
			ap := &stormAP{
				name:     stormAPName(c, a),
				resident: make(map[string]bool),
				purged:   make(map[string]bool),
			}
			mux := httplite.NewMux()
			mux.HandleFunc(coherence.DefaultPurgePath, ap.handlePurge)
			l, lerr := net.Node(ap.name).Listen(80)
			if lerr != nil {
				return fmt.Errorf("storm %s: %w", ap.name, lerr)
			}
			defer l.Close()
			sim.Go("storm.ap", func() { httplite.NewServer(sim, mux).Serve(l) })
			ap.addr = transport.Addr{Host: ap.name, Port: 80}
			ctl.RegisterAP(ap.name, ap.addr, ap.addr)
			aps[c] = append(aps[c], ap)
		}
		if err := ctl.Start(0); err != nil {
			return fmt.Errorf("storm %s: %w", stormCtlName(c), err)
		}
		defer ctl.Stop()
		if cfg.Sharded {
			var domains []string
			for d := 0; d < stormDomains; d++ {
				if d%stormControllers == c {
					domains = append(domains, stormDomain(d))
				}
			}
			if err := ctl.SubscribeBusWith(hubAddr, domains); err != nil {
				return fmt.Errorf("storm subscribe %s: %w", stormCtlName(c), err)
			}
		} else {
			if err := ctl.SubscribeBus(hubAddr); err != nil {
				return fmt.Errorf("storm subscribe %s: %w", stormCtlName(c), err)
			}
		}
		controllers[c] = ctl
	}

	// Seed residency: every object lands on stormHoldersPerObject APs of
	// its home controller (object 0 — the flash-crowd object — on all of
	// them), recorded both AP-side and in the home controller's location
	// table via the AP's own content report.
	seeded := make(map[*stormAP][]string)
	homes := make(map[*stormAP]int)
	for k := 0; k < cfg.Objects; k++ {
		url := stormObjURL(k)
		home := (k % stormDomains) % stormControllers
		holders := min(stormHoldersPerObject, cfg.APsPerController)
		if k == 0 {
			holders = cfg.APsPerController
		}
		for _, a := range rng.Perm(cfg.APsPerController)[:holders] {
			ap := aps[home][a]
			ap.resident[url] = true
			seeded[ap] = append(seeded[ap], url)
			homes[ap] = home
		}
	}
	for c := range aps {
		for _, ap := range aps[c] {
			urls := seeded[ap]
			if len(urls) == 0 {
				continue
			}
			if err := stormReport(sim, net, ap, controllers[homes[ap]].Addr(), urls); err != nil {
				return err
			}
		}
	}

	// The storm: every purge published concurrently — a flash-crowd
	// invalidation wave, not a drip — so coalescing windows actually see
	// contemporaneous messages.
	pub := httplite.NewClient(net.Node(originNode))
	publishers := vclock.NewGroup(sim)
	for k := 0; k < cfg.Objects; k++ {
		url := stormObjURL(k)
		publishers.Go("storm.pub", func() {
			start := sim.Now()
			if err := coherence.Publish(pub, hubAddr, coherence.Msg{URL: url, Version: 2}); err == nil {
				res.PubLatency.Add(sim.Now().Sub(start))
			}
		})
	}
	publishers.Wait()
	sim.Sleep(stormSettle)

	// Drain the counters.
	res.Publications = cfg.Objects
	hubStats := hub.Stats()
	if hubStats.Dispatch != nil {
		res.HubWire = hubStats.Dispatch.Batches
		res.Dropped += hubStats.Dispatch.Dropped
	} else {
		res.HubWire = hubStats.Relayed
	}
	res.Evicted = hubStats.Evicted
	for _, ctl := range controllers {
		if d := ctl.Dispatch(); d != nil {
			st := d.Stats()
			res.Dropped += st.Dropped
			res.Evicted += st.Evicted
		}
	}
	for c := range aps {
		for _, ap := range aps[c] {
			ap.mu.Lock()
			res.APWire += int64(ap.wireReqs)
			for url := range ap.purged {
				res.Effective = append(res.Effective, ap.name+" "+url)
			}
			ap.mu.Unlock()
		}
	}
	res.RelayMessages = res.HubWire + res.APWire
	sort.Strings(res.Effective)
	return nil
}

// stormReport posts one content report from the AP's node to its home
// controller, adding the AP's seeded URLs to the controller's location
// table.
func stormReport(sim *vclock.Sim, net *simnet.Network, ap *stormAP, ctl transport.Addr, urls []string) error {
	body, err := json.Marshal(struct {
		AP  string   `json:"ap"`
		Add []string `json:"add"`
	}{AP: ap.name, Add: urls})
	if err != nil {
		return err
	}
	req := httplite.NewRequest("POST", ctl.Host, "/report")
	req.Body = body
	client := httplite.NewClient(net.Node(ap.name))
	resp, err := client.Do(ctl, req)
	if err != nil || resp.Status != 200 {
		return fmt.Errorf("storm report %s: %v", ap.name, err)
	}
	return nil
}
