package testbed

import (
	"fmt"
	"time"

	"apecache/internal/objstore"
	"apecache/internal/simnet"
	"apecache/internal/vclock"
)

// MeshConfig assembles the cooperative-mesh testbed: N APE-CACHE APs on
// one LAN, a colocated Wi-Cache controller running the mesh directory,
// and a shared content pool whose working set rotates across the APs so
// every AP's first touch of an object is someone else's old news.
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

// NewMesh builds and starts the mesh topology. Call from inside a sim
// task (sim.Run). Each tick, client i fetches pool object
// (tick + i*meshStride) mod pool.
func NewMesh(sim *vclock.Sim, cfg MeshConfig) (*Cluster, error) {
	cfg.applyDefaults()
	// Shared catalog: every AP's clients draw from the same pool, phase
	// shifted, so the mesh has real overlap to exploit.
	var objs []*objstore.Object
	var pool []string
	for k := 0; k < meshSharedObjects; k++ {
		u := fmt.Sprintf("http://shared.mesh.example/obj%d", k)
		objs = append(objs, &objstore.Object{URL: u, App: "mesh", Size: meshObjectSize,
			TTL: time.Hour, Priority: objstore.PriorityHigh, OriginDelay: 5 * time.Millisecond})
		pool = append(pool, u)
	}
	// One LAN: APs reach each other and the colocated controller in a
	// couple of milliseconds, while the edge stays a 12 ms uplink away —
	// the gap the peer tier exists to exploit.
	return newCluster(sim, clusterSpec{
		name:      "mesh",
		numAPs:    cfg.NumAPs,
		seed:      cfg.Seed,
		ctlLink:   simnet.Path{Latency: 2 * time.Millisecond, Hops: 2, Bandwidth: 100 << 20},
		lan:       &simnet.Path{Latency: 1500 * time.Microsecond, Hops: 2, Bandwidth: 100 << 20},
		catalog:   objs,
		mesh:      cfg.MeshEnabled,
		bareNames: true,
		next: func(tick, i int) (string, string) {
			return pool[(tick+i*meshStride)%len(pool)], "mesh"
		},
	})
}
