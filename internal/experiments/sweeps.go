package experiments

import (
	"fmt"
	"time"

	"apecache/internal/metrics"
	"apecache/internal/testbed"
	"apecache/internal/vclock"
	"apecache/internal/workload"
)

// outcome aggregates everything one testbed run produces, so the lookup,
// retrieval, hit-ratio, app-latency and explain experiments can share
// runs.
type outcome struct {
	Lookup     *metrics.LatencyStats
	Retrieval  *metrics.LatencyStats
	Hits       *metrics.HitStats
	AppLatency *metrics.LatencyStats
	PerApp     map[string]*metrics.LatencyStats
	Executions int
	Failures   int
	// Ledger is the AP's miss attribution (nil without an APE-CACHE AP).
	Ledger *explainOutcome
}

// runKey identifies a memoized run.
type runKey struct {
	system   testbed.System
	suiteKey string
	duration time.Duration
	seed     int64
	capacity int64
}

// runMemo caches completed runs for the lifetime of the process so that
// e.g. fig11a and fig11c (same sweep, different stage) reuse simulations.
// The harness is single-threaded.
var runMemo = map[runKey]*outcome{}

// runWorkload executes one suite against one system for the duration of
// virtual time and aggregates the measurements. The decision ledger is
// always on: it sends nothing over the wire, so it moves no other
// measurement.
func runWorkload(system testbed.System, suite *workload.Suite, suiteKey string, duration time.Duration, seed, capacity int64) (*outcome, error) {
	key := runKey{system: system, suiteKey: suiteKey, duration: duration, seed: seed, capacity: capacity}
	if out, ok := runMemo[key]; ok {
		return out, nil
	}

	var out *outcome
	err := vclock.Simulate("experiment", func(sim *vclock.Sim) error {
		tb, err := testbed.New(sim, system, testbed.Config{
			Suite:         suite,
			Seed:          seed,
			CacheCapacity: capacity,
			DecisionLog:   true,
		})
		if err != nil {
			return err
		}
		res := workload.Run(sim, suite, tb.FetcherFor, duration, seed+101)
		out = &outcome{
			Lookup:     tb.LookupStats(),
			Retrieval:  tb.RetrievalStats(),
			Hits:       tb.HitStats(),
			AppLatency: &res.Overall,
			PerApp:     res.PerApp,
			Executions: res.Executions,
			Failures:   res.Failures,
			Ledger:     captureLedger(tb),
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("run %v/%s: %w", system, suiteKey, err)
	}
	if out.Failures > 0 {
		return nil, fmt.Errorf("run %v/%s: %d failed executions", system, suiteKey, out.Failures)
	}
	runMemo[key] = out
	return out, nil
}

// Default AP cache capacity of the evaluation (§V-B: 5 MB).
const defaultCapacity = 5 << 20

// suiteForSize builds the suite for the object-size sweep (Table IV /
// Fig 13a): sizes 1..maxKB, defaults elsewhere.
func suiteForSize(maxKB int, seed int64) (*workload.Suite, string) {
	suite := workload.Generate(workload.GeneratorConfig{
		NumApps:   28,
		MaxSizeKB: maxKB,
		Seed:      seed,
	})
	return suite, fmt.Sprintf("size=%dKB", maxKB)
}

// suiteForFreq builds the suite for the usage-frequency sweep (Table V /
// Fig 13b / Fig 11): default sizes, average frequency f.
func suiteForFreq(f float64, seed int64) (*workload.Suite, string) {
	suite := workload.Generate(workload.GeneratorConfig{
		NumApps: 28,
		AvgFreq: f,
		Seed:    seed,
	})
	return suite, fmt.Sprintf("freq=%.1f", f)
}

// suiteForApps builds the suite for the app-quantity sweep (Table VI /
// Fig 13c): n apps total (the two real apps plus n-2 synthetic).
func suiteForApps(n int, seed int64) (*workload.Suite, string) {
	suite := workload.Generate(workload.GeneratorConfig{
		NumApps: n - 2,
		Seed:    seed,
	})
	return suite, fmt.Sprintf("apps=%d", n)
}

// Sweep values straight from the paper.
var (
	sizeSweepKB   = []int{100, 200, 300, 400, 500}
	freqSweep     = []float64{1, 1.5, 2, 2.5, 3}
	appQuantities = []int{5, 10, 15, 20, 25, 30}
)
