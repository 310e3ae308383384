package testbed

import (
	"testing"

	"apecache/internal/vclock"
)

// meshRun drives one mesh testbed to completion and returns its
// counters.
func meshRun(t *testing.T, cfg MeshConfig, ticks int) (requests, localHits, peerHits, fallbacks int, peerBytes, backhaul int64) {
	t.Helper()
	err := vclock.Simulate("mesh", func(sim *vclock.Sim) error {
		m, err := NewMesh(sim, cfg)
		if err != nil {
			return err
		}
		m.DriveTicks(ticks)
		tot := m.MeshTotals()
		requests, localHits = m.Requests, m.LocalHits
		peerHits, fallbacks = tot.PeerHits, tot.PeerFallbacks
		peerBytes, backhaul = tot.PeerBytes, tot.BackhaulBytes
		return m.Stop()
	})
	if err != nil {
		t.Fatal(err)
	}
	return
}

// With the mesh on, the rotating workload's first-touch misses are
// served by peers that walked past the objects earlier; backhaul drops
// accordingly versus the mesh-off twin.
func TestMeshPeerHitsReduceBackhaul(t *testing.T) {
	const ticks = 40
	_, _, peerOn, _, peerBytes, backOn := meshRun(t, MeshConfig{NumAPs: 4, MeshEnabled: true}, ticks)
	_, _, peerOff, _, _, backOff := meshRun(t, MeshConfig{NumAPs: 4, MeshEnabled: false}, ticks)
	if peerOn == 0 {
		t.Fatal("mesh on: no peer hits")
	}
	if peerBytes == 0 {
		t.Fatal("mesh on: peer hits moved no bytes")
	}
	if peerOff != 0 {
		t.Fatalf("mesh off: %d peer hits", peerOff)
	}
	if backOn >= backOff {
		t.Fatalf("backhaul with mesh (%d) not below mesh-off (%d)", backOn, backOff)
	}
}

// The simulation is deterministic: identical configs produce identical
// counters, tick for tick and byte for byte.
func TestMeshDeterminism(t *testing.T) {
	cfg := MeshConfig{NumAPs: 4, MeshEnabled: true}
	const ticks = 30
	r1, l1, p1, f1, pb1, b1 := meshRun(t, cfg, ticks)
	r2, l2, p2, f2, pb2, b2 := meshRun(t, cfg, ticks)
	if r1 != r2 || l1 != l2 || p1 != p2 || f1 != f2 || pb1 != pb2 || b1 != b2 {
		t.Fatalf("two identical runs diverged: (%d %d %d %d %d %d) vs (%d %d %d %d %d %d)",
			r1, l1, p1, f1, pb1, b1, r2, l2, p2, f2, pb2, b2)
	}
}

// A singleton mesh has no peers to fetch from: it must behave exactly
// like the mesh-off topology on every counter that costs anything.
func TestMeshSingletonMatchesMeshOff(t *testing.T) {
	const ticks = 30
	rOn, lOn, pOn, _, _, bOn := meshRun(t, MeshConfig{NumAPs: 1, MeshEnabled: true}, ticks)
	rOff, lOff, pOff, _, _, bOff := meshRun(t, MeshConfig{NumAPs: 1, MeshEnabled: false}, ticks)
	if pOn != 0 || pOff != 0 {
		t.Fatalf("singleton meshes saw peer hits: %d / %d", pOn, pOff)
	}
	if rOn != rOff || lOn != lOff || bOn != bOff {
		t.Fatalf("singleton mesh-on (%d req %d hits %d backhaul) != mesh-off (%d req %d hits %d backhaul)",
			rOn, lOn, bOn, rOff, lOff, bOff)
	}
}
