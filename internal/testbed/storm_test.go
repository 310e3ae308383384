package testbed

import (
	"reflect"
	"testing"
)

// stormTestConfig is a reduced-scale storm: 16 controllers x 16 APs.
func stormTestConfig(sharded bool) StormConfig {
	return StormConfig{
		APsPerController: 16,
		Objects:          48,
		Sharded:          sharded,
		Seed:             7,
	}
}

// TestStormShardedMatchesLegacy is the tentpole invariant: the sharded,
// batched plane must purge exactly the resident copies the legacy
// broadcast purges — while spending an order of magnitude fewer wire
// messages doing it.
func TestStormShardedMatchesLegacy(t *testing.T) {
	legacy, err := RunStorm(stormTestConfig(false))
	if err != nil {
		t.Fatalf("legacy storm: %v", err)
	}
	sharded, err := RunStorm(stormTestConfig(true))
	if err != nil {
		t.Fatalf("sharded storm: %v", err)
	}

	// 47 objects x stormHoldersPerObject (8) holders + the flash-crowd
	// object on all 16 APs of its home controller.
	wantEffective := 47*8 + 16
	if len(legacy.Effective) != wantEffective {
		t.Errorf("legacy effective purges = %d, want %d", len(legacy.Effective), wantEffective)
	}
	if !reflect.DeepEqual(legacy.Effective, sharded.Effective) {
		t.Errorf("effective purge sets differ: legacy %d entries, sharded %d",
			len(legacy.Effective), len(sharded.Effective))
	}
	if sharded.Dropped != 0 || sharded.Evicted != 0 {
		t.Errorf("sharded storm lost messages: dropped=%d evicted=%d", sharded.Dropped, sharded.Evicted)
	}
	if legacy.RelayMessages < 10*sharded.RelayMessages {
		t.Errorf("relay reduction below 10x: legacy=%d sharded=%d",
			legacy.RelayMessages, sharded.RelayMessages)
	}
	if legacy.PubLatency.Count() != legacy.Objects || sharded.PubLatency.Count() != sharded.Objects {
		t.Errorf("publication counts: legacy=%d sharded=%d want %d",
			legacy.PubLatency.Count(), sharded.PubLatency.Count(), legacy.Objects)
	}
}

// TestStormDeterministic pins the simulated storm: same seed, same
// aggregate counters and the same effective purge set.
func TestStormDeterministic(t *testing.T) {
	a, err := RunStorm(stormTestConfig(true))
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := RunStorm(stormTestConfig(true))
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if !reflect.DeepEqual(a.Effective, b.Effective) {
		t.Error("effective purge sets differ across identical runs")
	}
	if a.RelayMessages != b.RelayMessages || a.HubWire != b.HubWire || a.APWire != b.APWire {
		t.Errorf("wire counters differ: %d/%d/%d vs %d/%d/%d",
			a.RelayMessages, a.HubWire, a.APWire, b.RelayMessages, b.HubWire, b.APWire)
	}
	if a.PubLatency.Mean() != b.PubLatency.Mean() {
		t.Errorf("publication latency differs: %v vs %v", a.PubLatency.Mean(), b.PubLatency.Mean())
	}
}
