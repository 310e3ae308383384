package workload

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"apecache/internal/appmodel"
	"apecache/internal/objstore"
	"apecache/internal/vclock"
)

func TestMovieTrailerMatchesPaper(t *testing.T) {
	app := MovieTrailer()
	if err := app.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(app.Requests) != 5 {
		t.Fatalf("requests = %d, want 5", len(app.Requests))
	}
	// Table III: movieID and thumbnail high priority; rating, plot, cast low.
	wantHigh := map[string]bool{"/movieID": true, "/thumbnail": true}
	for _, r := range app.Requests {
		high := r.Object.Priority == objstore.PriorityHigh
		if wantHigh[r.Object.Path()] != high {
			t.Errorf("%s priority = %d", r.Object.URL, r.Object.Priority)
		}
	}
}

func TestVirtualHomeMatchesPaper(t *testing.T) {
	app := VirtualHome()
	if err := app.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Table III: ARObjects high, ARObjectsID low.
	for _, r := range app.Requests {
		wantHigh := r.Object.Path() == "/arobjects"
		if (r.Object.Priority == objstore.PriorityHigh) != wantHigh {
			t.Errorf("%s priority = %d", r.Object.URL, r.Object.Priority)
		}
	}
}

func TestGenerateRespectsConfigRanges(t *testing.T) {
	cfg := GeneratorConfig{NumApps: 28, Seed: 7}
	suite := Generate(cfg)
	if len(suite.Apps) != 30 {
		t.Fatalf("apps = %d, want 30 (28 synthetic + 2 real)", len(suite.Apps))
	}
	if err := suite.Catalog.Validate(); err != nil {
		t.Fatalf("catalog: %v", err)
	}
	for _, app := range suite.Apps[2:] { // synthetic only
		if err := app.Validate(); err != nil {
			t.Errorf("%s: %v", app.Name, err)
		}
		for _, o := range app.Objects() {
			if o.Size < 1<<10 || o.Size > 100<<10 {
				t.Errorf("%s size %d out of [1KB,100KB]", o.URL, o.Size)
			}
			if o.TTL < 10*time.Minute || o.TTL > 60*time.Minute {
				t.Errorf("%s TTL %v out of [10m,60m]", o.URL, o.TTL)
			}
			if o.OriginDelay < 20*time.Millisecond || o.OriginDelay > 50*time.Millisecond {
				t.Errorf("%s delay %v out of [20ms,50ms]", o.URL, o.OriginDelay)
			}
		}
		// Every app has at least one high-priority object (its critical
		// path is non-empty).
		high := 0
		for _, o := range app.Objects() {
			if o.Priority == objstore.PriorityHigh {
				high++
			}
		}
		if high == 0 {
			t.Errorf("%s has no high-priority objects", app.Name)
		}
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	a := Generate(GeneratorConfig{NumApps: 10, Seed: 42})
	b := Generate(GeneratorConfig{NumApps: 10, Seed: 42})
	if len(a.Apps) != len(b.Apps) {
		t.Fatal("different app counts")
	}
	for i := range a.Apps {
		ao, bo := a.Apps[i].Objects(), b.Apps[i].Objects()
		if len(ao) != len(bo) {
			t.Fatalf("app %d: %d vs %d objects", i, len(ao), len(bo))
		}
		for j := range ao {
			if ao[j].URL != bo[j].URL || ao[j].Size != bo[j].Size || ao[j].TTL != bo[j].TTL {
				t.Fatalf("app %d object %d differs", i, j)
			}
		}
	}
	for name, f := range a.Freq {
		if math.Abs(f-b.Freq[name]) > 1e-12 {
			t.Fatalf("freq for %s differs", name)
		}
	}
}

func TestFrequenciesAverageToConfig(t *testing.T) {
	suite := Generate(GeneratorConfig{NumApps: 28, AvgFreq: 3, Seed: 1})
	var sum float64
	for _, f := range suite.Freq {
		if f <= 0 {
			t.Fatalf("non-positive frequency %f", f)
		}
		sum += f
	}
	mean := sum / float64(len(suite.Freq))
	if math.Abs(mean-3) > 1e-9 {
		t.Errorf("mean frequency = %f, want 3", mean)
	}
	// Zipf: frequencies must not be uniform.
	var min, max float64 = math.Inf(1), 0
	for _, f := range suite.Freq {
		min = math.Min(min, f)
		max = math.Max(max, f)
	}
	if max/min < 2 {
		t.Errorf("Zipf spread too flat: min=%f max=%f", min, max)
	}
}

// instantFetcher returns immediately (latency comes only from compose).
type instantFetcher struct{}

func (instantFetcher) Get(string) ([]byte, error) { return []byte("x"), nil }

// generateSyntheticSuite builds a suite of only synthetic apps.
func generateSyntheticSuite(cfg GeneratorConfig) *Suite {
	cfg.applyDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	apps := GenerateSynthetic(cfg, rng)
	return assembleSuite(apps, cfg)
}

func TestRunExecutesAtConfiguredRate(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	var res *RunResult
	suite := generateSyntheticSuite(GeneratorConfig{NumApps: 5, AvgFreq: 3, Seed: 3})
	sim.Run("main", func() {
		res = Run(sim, suite, func(*appmodel.App) appmodel.Fetcher { return instantFetcher{} },
			20*time.Minute, 99)
	})
	sim.Shutdown()
	sim.Wait()
	if err := sim.Err(); err != nil {
		t.Fatal(err)
	}
	// 5 apps × 3/min × 20 min = 300 expected executions; Poisson noise
	// stays well within ±40%.
	if res.Executions < 180 || res.Executions > 420 {
		t.Errorf("executions = %d, want ≈300", res.Executions)
	}
	if res.Failures != 0 {
		t.Errorf("failures = %d", res.Failures)
	}
	if res.Overall.Count() != res.Executions {
		t.Errorf("overall samples %d != executions %d", res.Overall.Count(), res.Executions)
	}
	for name, stats := range res.PerApp {
		if stats.Count() == 0 {
			t.Errorf("app %s never executed", name)
		}
	}
}
