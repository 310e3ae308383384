package experiments

import (
	"fmt"

	"apecache/internal/testbed"
	"apecache/internal/vclock"
)

func init() {
	register(Experiment{
		ID:    "coop",
		Title: "Cooperative cache mesh: peer hits and backhaul vs mesh size",
		Run:   runCoop,
	})
}

// coopMeshSizes is the sweep: a singleton (where the mesh can find no
// peers and must behave exactly like mesh-off) up to a 16-AP LAN.
var coopMeshSizes = []int{1, 2, 4, 8, 16}

// coopRow is one sweep point: the same topology and rotating workload
// driven twice, mesh on and mesh off, so the backhaul delta is the
// mesh's doing alone.
type coopRow struct {
	size          int
	requests      int
	peerHits      int
	fallbacks     int
	backhaulOn    int64
	backhaulOff   int64
	localHitRatio float64
}

// runCoop sweeps mesh size over the cooperative-mesh testbed. Each AP's
// client walks the shared pool phase-shifted, so almost every object an
// AP misses is already resident at a peer that walked past it earlier;
// the mesh converts those misses from 24 ms edge delegations into
// single-digit-millisecond LAN fetches and takes the payload off the
// backhaul.
func runCoop(cfg RunConfig) (*Result, error) {
	// The interesting window is the first pool rotation (after it every
	// AP has everything locally); scale stretches how much steady state
	// is observed after that.
	ticks := int(120 * cfg.scale() * 4)
	if ticks < 40 {
		ticks = 40
	}

	res := &Result{
		ID:     "coop",
		Title:  "AP-to-AP cooperative mesh sweep (rotating shared pool, 24 objects x 24 KB)",
		Header: []string{"APs", "Requests", "Peer hits", "Peer-hit %", "Fallbacks", "Backhaul on (KB)", "Backhaul off (KB)", "Saved %"},
		Notes: []string{
			"backhaul = payload bytes delegated over the AP-to-edge uplink; on/off = mesh enabled/disabled, same seed and workload",
			"peer path: directory lookup at the LAN controller (2 ms) + AP-to-AP fetch (1.5 ms) vs 12 ms edge uplink",
		},
	}
	for _, size := range coopMeshSizes {
		on, err := coopRun(cfg, size, true, ticks)
		if err != nil {
			return nil, err
		}
		off, err := coopRun(cfg, size, false, ticks)
		if err != nil {
			return nil, err
		}
		saved := 0.0
		if off.backhaulOff > 0 {
			saved = 100 * float64(off.backhaulOff-on.backhaulOn) / float64(off.backhaulOff)
		}
		peerPct := 0.0
		if on.requests > 0 {
			peerPct = 100 * float64(on.peerHits) / float64(on.requests)
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", size),
			fmt.Sprintf("%d", on.requests),
			fmt.Sprintf("%d", on.peerHits),
			fmt.Sprintf("%.1f", peerPct),
			fmt.Sprintf("%d", on.fallbacks),
			fmt.Sprintf("%.0f", float64(on.backhaulOn)/1024),
			fmt.Sprintf("%.0f", float64(off.backhaulOff)/1024),
			fmt.Sprintf("%.1f", saved),
		})
	}
	return res, nil
}

// coopRun drives one mesh-size/mesh-mode point in a fresh simulation.
func coopRun(cfg RunConfig, size int, meshOn bool, ticks int) (coopRow, error) {
	row := coopRow{size: size}
	err := vclock.Simulate("coop", func(sim *vclock.Sim) error {
		m, err := testbed.NewMesh(sim, testbed.MeshConfig{
			NumAPs:      size,
			Seed:        cfg.Seed,
			MeshEnabled: meshOn,
		})
		if err != nil {
			return err
		}
		defer m.Stop()
		m.DriveTicks(ticks)
		totals := m.MeshTotals()
		row.requests = m.Requests
		row.peerHits = totals.PeerHits
		row.fallbacks = totals.PeerFallbacks
		if m.Requests > 0 {
			row.localHitRatio = float64(m.LocalHits) / float64(m.Requests)
		}
		if meshOn {
			row.backhaulOn = totals.BackhaulBytes
		} else {
			row.backhaulOff = totals.BackhaulBytes
		}
		return nil
	})
	return row, err
}

// CoopOutcome extracts the acceptance signals from a coop result: the
// total peer hits and whether every sweep point of at least minSize
// reduced backhaul versus its mesh-off twin — the CI coop-smoke gate.
func CoopOutcome(res *Result, minSize int) (peerHits int, backhaulReduced bool) {
	backhaulReduced = true
	for _, row := range res.Rows {
		var size, hits, fallbacks int
		var reqs int
		var peerPct, on, off, saved float64
		_, err := fmt.Sscanf(row[0]+" "+row[1]+" "+row[2]+" "+row[3]+" "+row[4]+" "+row[5]+" "+row[6]+" "+row[7],
			"%d %d %d %f %d %f %f %f", &size, &reqs, &hits, &peerPct, &fallbacks, &on, &off, &saved)
		if err != nil {
			return 0, false
		}
		peerHits += hits
		if size >= minSize && on >= off {
			backhaulReduced = false
		}
	}
	return peerHits, backhaulReduced
}
