package testbed

import (
	"bytes"
	"testing"
	"time"

	"apecache/internal/coherence"
	"apecache/internal/vclock"
	"apecache/internal/workload"
)

// coherenceScenario warms one object at the AP, mutates it at the origin
// (publishing on the bus), waits out the bus+revalidation latency, and
// returns the bodies observed before and after along with the testbed.
func coherenceScenario(t *testing.T, mode coherence.Mode) (before, after, fresh []byte, tb *Testbed) {
	t.Helper()
	suite := workload.Generate(workload.GeneratorConfig{NumApps: 4, Seed: 3})
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() {
		var err error
		tb, err = New(sim, SystemAPECache, Config{Suite: suite, Seed: 11, Coherence: mode})
		if err != nil {
			t.Errorf("New: %v", err)
			return
		}
		app := suite.Apps[0]
		obj := app.Objects()[0]
		fetcher := tb.FetcherFor(app)

		// Warm: the first fetch delegates and fills the AP cache.
		if _, err := fetcher.Get(obj.URL); err != nil {
			t.Errorf("warm get: %v", err)
			return
		}
		sim.Sleep(2 * time.Second)
		b, err := fetcher.Get(obj.URL)
		if err != nil {
			t.Errorf("hit get: %v", err)
			return
		}
		before = b

		if _, err := tb.MutateObject(obj.URL); err != nil {
			t.Errorf("mutate: %v", err)
			return
		}
		sim.Sleep(2 * time.Second) // bus relay + background revalidation
		a, err := fetcher.Get(obj.URL)
		if err != nil {
			t.Errorf("post-mutation get: %v", err)
			return
		}
		after = a
		fresh = obj.Body()
		if err := tb.Stop(); err != nil {
			t.Error(err)
		}
	})
	sim.Shutdown()
	sim.Wait()
	if err := sim.Err(); err != nil {
		t.Fatal(err)
	}
	return before, after, fresh, tb
}

func TestCoherenceScenarioPushModesServeFresh(t *testing.T) {
	for _, mode := range []coherence.Mode{coherence.ModeInvalidate, coherence.ModeSWR} {
		before, after, fresh, tb := coherenceScenario(t, mode)
		if bytes.Equal(before, after) {
			t.Errorf("%v: post-purge fetch returned the stale body", mode)
		}
		if !bytes.Equal(after, fresh) {
			t.Errorf("%v: post-purge fetch is not the origin's current version", mode)
		}
		st := tb.AP.Snapshot()
		if st.Purges == 0 {
			t.Errorf("%v: AP handled no purges", mode)
		}
		if mode == coherence.ModeSWR && st.Revalidations == 0 {
			t.Error("SWR: no background revalidation ran")
		}
	}
}

func TestCoherenceScenarioTTLOnlyServesStale(t *testing.T) {
	before, after, fresh, tb := coherenceScenario(t, coherence.ModeOff)
	// No subscription: the AP never hears about the purge and keeps the
	// stale copy until its TTL runs out — the gap the bus closes.
	if !bytes.Equal(before, after) {
		t.Error("TTL-only AP lost the cached copy without a purge")
	}
	if bytes.Equal(after, fresh) {
		t.Error("TTL-only fetch unexpectedly fresh (did the AP subscribe?)")
	}
	if st := tb.AP.Snapshot(); st.Purges != 0 {
		t.Errorf("TTL-only AP handled %d purges, want 0", st.Purges)
	}
	// The edge itself is coherent: its colocated hub purged it, so a
	// direct edge fetch serves the new version.
	if len(tb.Hub.Subscribers()) != 0 {
		t.Error("TTL-only run registered bus subscribers")
	}
}
