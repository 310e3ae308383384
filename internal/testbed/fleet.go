package testbed

import (
	"fmt"
	"math/rand"
	"time"

	"apecache/internal/objstore"
	"apecache/internal/simnet"
	"apecache/internal/vclock"
)

// FleetConfig assembles an N-AP fleet observability testbed: many
// APE-CACHE APs under one Wi-Cache controller running the fleet store,
// every tier pushing telemetry snapshots over the control channel.
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

// fleetWarmObjects is each AP's working-set size.
const fleetWarmObjects = 8

// coldPoolSize is the per-AP brownout URL pool: unique cold objects a
// browned-out AP's client cycles through (half resolvable at the edge,
// half unknown, so both slow delegations and delegation failures show).
const coldPoolSize = 512

// Fleet is a running fleet testbed: a Cluster with the fleet plane on.
// Build it inside a sim task with NewFleet; drive traffic with Drive and
// inject faults with SetBrownout.
type Fleet struct {
	*Cluster

	warm     [][]string
	brownout []bool
	coldNext []int
	rng      *rand.Rand
}

// NewFleet builds and starts the whole fleet topology. Call from
// inside a sim task (sim.Run).
func NewFleet(sim *vclock.Sim, cfg FleetConfig) (*Fleet, error) {
	cfg.applyDefaults()
	f := &Fleet{
		warm:     make([][]string, cfg.NumAPs),
		brownout: make([]bool, cfg.NumAPs),
		coldNext: make([]int, cfg.NumAPs),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
	}

	// Catalog: a warm working set per AP plus the shared cold pool.
	var objs []*objstore.Object
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

	c, err := newCluster(sim, clusterSpec{
		name:    "fleet",
		numAPs:  cfg.NumAPs,
		seed:    cfg.Seed,
		ctlLink: simnet.Path{Latency: 10 * time.Millisecond, Hops: 11, Bandwidth: 100 << 20},
		extra: []clusterLink{
			{clusterEdgeNode, "fleet-ctl", simnet.Path{Latency: 12 * time.Millisecond, Hops: 10, Bandwidth: 100 << 20}},
			{clusterClientName(0), "fleet-ctl", simnet.Path{Latency: 11 * time.Millisecond, Hops: 12, Bandwidth: 40 << 20}},
		},
		catalog: objs,
		fleet:   true,
		next:    f.next,
	})
	if err != nil {
		return nil, err
	}
	f.Cluster = c
	return f, nil
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
	f.Net.SetLink(clusterAPName(i), clusterEdgeNode, path)
}

// next picks AP i's URL: from its warm working set, or from the cold
// pool while browned out.
func (f *Fleet) next(_, i int) (string, string) {
	app := fmt.Sprintf("app%02d", i)
	if !f.brownout[i] {
		return f.warm[i][f.rng.Intn(len(f.warm[i]))], app
	}
	k := f.coldNext[i]
	f.coldNext[i]++
	if k%2 == 0 {
		// Known but never-repeated: a miss with a slow delegation.
		return fmt.Sprintf("http://cold.fleet.example/obj%d", (k/2)%coldPoolSize), app
	}
	// Unknown at the edge: the delegation fails outright.
	return fmt.Sprintf("http://cold.fleet.example/missing%d", k), app
}
