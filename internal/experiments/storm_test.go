package experiments

import "testing"

// TestFleetStormShape checks the storm table at tiny scale: both fan-out
// modes at both fleet sizes, and the sharded plane's gate — it must cut
// relay amplification by at least 10x at every fleet size, purge the exact
// same resident set, and keep publication latency flat as the fleet
// quadruples. The run is in virtual time, so the gate is deterministic.
func TestFleetStormShape(t *testing.T) {
	res, err := mustRun(t, "fleet-storm")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 (legacy/sharded x 2 fleet sizes)", len(res.Rows))
	}
	reductions, match := StormOutcome(res)
	if len(reductions) != 2 {
		t.Fatalf("parsed %d relay-reduction notes, want 2", len(reductions))
	}
	if !match {
		t.Error("sharded effective purge set diverged from legacy broadcast")
	}
	for i, r := range reductions {
		if r < 10 {
			t.Errorf("relay reduction %d = %.1fx, gate requires >= 10x", i, r)
		}
	}
	// Sharded publication latency must not grow with the fleet: rows 1
	// and 3 are the sharded runs at the small and large fleet.
	small := numericCell(t, res.Rows[1][3])
	large := numericCell(t, res.Rows[3][3])
	if small > 0 && large > 3*small {
		t.Errorf("sharded publication latency grew with fleet size: %.2fms -> %.2fms", small, large)
	}
}
