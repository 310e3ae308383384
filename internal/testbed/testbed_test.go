package testbed

import (
	"testing"
	"time"

	"apecache/internal/cachepolicy"
	"apecache/internal/vclock"
	"apecache/internal/workload"
)

// newTestSim builds a fresh simulation for one test run.
func newTestSim(t *testing.T) *vclock.Sim {
	t.Helper()
	return vclock.NewSim(time.Time{})
}

// fakePolicy is a stand-in policy for override plumbing tests.
type fakePolicy struct{}

func (fakePolicy) Name() string { return "fake" }
func (fakePolicy) SelectVictims(_ time.Time, entries []*cachepolicy.Entry, _ *cachepolicy.Entry, _ int64, _ *cachepolicy.FreqTracker) []*cachepolicy.Entry {
	return entries // evict everything: trivially correct for plumbing tests
}

// runSystem replays a suite against one system for the given virtual
// duration and returns the workload result plus the testbed.
func runSystem(t *testing.T, system System, suite *workload.Suite, d time.Duration) (*workload.RunResult, *Testbed) {
	t.Helper()
	sim := vclock.NewSim(time.Time{})
	var (
		res *workload.RunResult
		tb  *Testbed
	)
	sim.Run("main", func() {
		var err error
		tb, err = New(sim, system, Config{Suite: suite, Seed: 11})
		if err != nil {
			t.Errorf("New(%v): %v", system, err)
			return
		}
		res = workload.Run(sim, suite, tb.FetcherFor, d, 5)
		if err := tb.Stop(); err != nil {
			t.Errorf("%v: %v", system, err)
		}
	})
	sim.Shutdown()
	sim.Wait()
	if err := sim.Err(); err != nil {
		t.Fatalf("%v: sim error: %v", system, err)
	}
	if res == nil {
		t.Fatalf("%v: no result", system)
	}
	return res, tb
}

func TestAllFourSystemsServeTheWorkload(t *testing.T) {
	suite := workload.Generate(workload.GeneratorConfig{NumApps: 6, Seed: 2})
	for _, system := range Systems {
		res, _ := runSystem(t, system, suite, 4*time.Minute)
		if res.Executions == 0 {
			t.Errorf("%v: no executions", system)
		}
		if res.Failures > 0 {
			t.Errorf("%v: %d failed executions", system, res.Failures)
		}
	}
}

func TestSystemLatencyOrderingMatchesPaper(t *testing.T) {
	suite := workload.Generate(workload.GeneratorConfig{NumApps: 10, Seed: 4})
	lat := make(map[System]time.Duration)
	for _, system := range Systems {
		res, _ := runSystem(t, system, suite, 10*time.Minute)
		lat[system] = res.Overall.Mean()
		t.Logf("%v: mean app latency %v over %d executions", system, res.Overall.Mean(), res.Executions)
	}
	// Fig 13: APE-CACHE < APE-CACHE-LRU < Wi-Cache < Edge Cache.
	if !(lat[SystemAPECache] < lat[SystemWiCache]) {
		t.Errorf("APE-CACHE (%v) should beat Wi-Cache (%v)", lat[SystemAPECache], lat[SystemWiCache])
	}
	if !(lat[SystemWiCache] < lat[SystemEdgeCache]) {
		t.Errorf("Wi-Cache (%v) should beat Edge Cache (%v)", lat[SystemWiCache], lat[SystemEdgeCache])
	}
	if !(lat[SystemAPECacheLRU] < lat[SystemEdgeCache]) {
		t.Errorf("APE-CACHE-LRU (%v) should beat Edge Cache (%v)", lat[SystemAPECacheLRU], lat[SystemEdgeCache])
	}
	// The headline claim: APE-CACHE cuts ~76% vs Edge Cache; require at
	// least half off in this short run.
	if lat[SystemAPECache] > lat[SystemEdgeCache]/2 {
		t.Errorf("APE-CACHE (%v) should cut Edge Cache latency (%v) by far more than half",
			lat[SystemAPECache], lat[SystemEdgeCache])
	}
}

func TestLookupLatencyOrderingMatchesPaper(t *testing.T) {
	suite := workload.Generate(workload.GeneratorConfig{NumApps: 8, Seed: 6})
	lookups := make(map[System]time.Duration)
	for _, system := range []System{SystemAPECache, SystemWiCache, SystemEdgeCache} {
		_, tb := runSystem(t, system, suite, 8*time.Minute)
		lookups[system] = tb.LookupStats().Mean()
		t.Logf("%v: mean lookup %v", system, lookups[system])
	}
	// Fig 11a: APE-CACHE ≈7.5 ms, the others >22 ms.
	if lookups[SystemAPECache] > 12*time.Millisecond {
		t.Errorf("APE-CACHE lookup = %v, want millisecond-level (<12ms)", lookups[SystemAPECache])
	}
	if lookups[SystemWiCache] < 15*time.Millisecond {
		t.Errorf("Wi-Cache lookup = %v, want >15ms (remote controller)", lookups[SystemWiCache])
	}
	if lookups[SystemEdgeCache] < 12*time.Millisecond {
		t.Errorf("Edge Cache lookup = %v, want >12ms (recursive DNS)", lookups[SystemEdgeCache])
	}
}

func TestHitStatsPresentForAPSystems(t *testing.T) {
	suite := workload.Generate(workload.GeneratorConfig{NumApps: 6, Seed: 8})
	for _, system := range []System{SystemAPECache, SystemAPECacheLRU, SystemWiCache} {
		_, tb := runSystem(t, system, suite, 6*time.Minute)
		hits := tb.HitStats()
		if hits.All.Total() == 0 {
			t.Errorf("%v: no hit observations", system)
			continue
		}
		if hits.All.Ratio() <= 0 {
			t.Errorf("%v: zero hit ratio after 6 minutes of warm traffic", system)
		}
	}
}

func TestEdgeCacheNeverTouchesAPCache(t *testing.T) {
	suite := workload.Generate(workload.GeneratorConfig{NumApps: 4, Seed: 9})
	_, tb := runSystem(t, SystemEdgeCache, suite, 3*time.Minute)
	if tb.AP.Store().Len() != 0 {
		t.Errorf("Edge Cache baseline populated the AP cache (%d entries)", tb.AP.Store().Len())
	}
	if tb.HitStats().All.Total() != 0 {
		t.Error("Edge Cache baseline recorded AP hit stats")
	}
}
