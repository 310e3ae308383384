package testbed

import (
	"testing"
	"time"

	"apecache/internal/workload"
)

// TestPrefetchImprovesHitRatio runs the same contended workload with and
// without the dependency-prefetch extension; prefetching must raise the
// AP hit ratio and never break a fetch.
func TestPrefetchImprovesHitRatio(t *testing.T) {
	ratios := make(map[bool]float64, 2)
	for _, enable := range []bool{false, true} {
		suite := workload.Generate(workload.GeneratorConfig{NumApps: 16, Seed: 21})
		sim := newTestSim(t)
		var ratio float64
		sim.Run("main", func() {
			tb, err := New(sim, SystemAPECache, Config{
				Suite:          suite,
				Seed:           21,
				EnablePrefetch: enable,
			})
			if err != nil {
				t.Errorf("New: %v", err)
				return
			}
			res := workload.Run(sim, suite, tb.FetcherFor, 6*time.Minute, 2)
			if res.Failures > 0 {
				t.Errorf("prefetch=%v: %d failures", enable, res.Failures)
			}
			ratio = tb.HitStats().All.Ratio()
			if enable && tb.AP.Snapshot().Prefetches == 0 {
				t.Error("prefetch enabled but no prefetches happened")
			}
			if !enable && tb.AP.Snapshot().Prefetches != 0 {
				t.Error("prefetch disabled but prefetches happened")
			}
		})
		sim.Shutdown()
		sim.Wait()
		if err := sim.Err(); err != nil {
			t.Fatalf("prefetch=%v: %v", enable, err)
		}
		ratios[enable] = ratio
	}
	if ratios[true] <= ratios[false] {
		t.Errorf("prefetch did not improve hit ratio: %f -> %f", ratios[false], ratios[true])
	}
	t.Logf("hit ratio without prefetch %.3f, with %.3f", ratios[false], ratios[true])
}

// TestPolicyOverrideAppliesToAPECache verifies Config.Policy reaches the
// AP store.
func TestPolicyOverrideAppliesToAPECache(t *testing.T) {
	suite := workload.Generate(workload.GeneratorConfig{NumApps: 3, Seed: 1})
	sim := newTestSim(t)
	sim.Run("main", func() {
		tb, err := New(sim, SystemAPECache, Config{Suite: suite, Seed: 1, Policy: fakePolicy{}})
		if err != nil {
			t.Errorf("New: %v", err)
			return
		}
		if tb.AP.Store().Policy().Name() != "fake" {
			t.Errorf("policy = %s, want fake", tb.AP.Store().Policy().Name())
		}
	})
	sim.Shutdown()
	sim.Wait()
}
