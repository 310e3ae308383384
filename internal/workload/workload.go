// Package workload builds the evaluation's app suite: the two real-world
// apps (MovieTrailer and VirtualHome, transcribed from Fig 3, Fig 10 and
// Table III) plus the synthetic app generator of §V-A (object sizes
// 1–100 KB, TTLs 10–60 min, origin retrieval latencies 20–50 ms,
// priorities from the critical path, Zipf-distributed usage frequencies
// averaging 3 executions per minute), and the driver that replays the
// suite against a caching system for a period of virtual time.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"apecache/internal/appmodel"
	"apecache/internal/metrics"
	"apecache/internal/objstore"
	"apecache/internal/vclock"
)

// GeneratorConfig parameterizes the synthetic suite; zero values take the
// paper's defaults.
type GeneratorConfig struct {
	NumApps     int           // default 28 synthetic (+2 real = 30)
	MinSizeKB   int           // default 1
	MaxSizeKB   int           // default 100
	MinTTL      time.Duration // default 10 min
	MaxTTL      time.Duration // default 60 min
	MinDelay    time.Duration // default 20 ms
	MaxDelay    time.Duration // default 50 ms
	AvgFreq     float64       // executions/min, default 3
	ZipfS       float64       // Zipf exponent, default 0.8
	ComposeTime time.Duration // default 5 ms
	Seed        int64
}

func (c *GeneratorConfig) applyDefaults() {
	if c.NumApps == 0 {
		c.NumApps = 28
	}
	if c.MinSizeKB == 0 {
		c.MinSizeKB = 1
	}
	if c.MaxSizeKB == 0 {
		c.MaxSizeKB = 100
	}
	if c.MinTTL == 0 {
		c.MinTTL = 10 * time.Minute
	}
	if c.MaxTTL == 0 {
		c.MaxTTL = 60 * time.Minute
	}
	if c.MinDelay == 0 {
		c.MinDelay = 20 * time.Millisecond
	}
	if c.MaxDelay == 0 {
		c.MaxDelay = 50 * time.Millisecond
	}
	if c.AvgFreq == 0 {
		c.AvgFreq = 3
	}
	if c.ZipfS == 0 {
		c.ZipfS = 0.8
	}
	if c.ComposeTime == 0 {
		c.ComposeTime = 5 * time.Millisecond
	}
}

// Suite is a set of apps with their usage frequencies and the combined
// object catalog.
type Suite struct {
	Apps []*appmodel.App
	// Freq maps app name to executions per minute.
	Freq    map[string]float64
	Catalog *objstore.Catalog
}

// MovieTrailer builds the paper's motivating example app (Fig 3):
// getMovieID feeds four concurrent detail requests; the critical path is
// getMovieID → getThumbnail, so movieID and thumbnail are high priority
// (Table III).
func MovieTrailer() *appmodel.App {
	const domain = "api.movietrailer.example"
	mk := func(path string, sizeKB int, delay time.Duration) *objstore.Object {
		return &objstore.Object{
			URL:         "http://" + domain + path,
			App:         "MovieTrailer",
			Size:        sizeKB << 10,
			TTL:         30 * time.Minute,
			Priority:    objstore.PriorityLow,
			OriginDelay: delay,
		}
	}
	app := &appmodel.App{
		Name:        "MovieTrailer",
		ComposeTime: 8 * time.Millisecond,
		Requests: []appmodel.Request{
			{Object: mk("/movieID", 1, 25*time.Millisecond)},                    // 0
			{Object: mk("/rating", 2, 22*time.Millisecond), Deps: []int{0}},     // 1
			{Object: mk("/plot", 4, 24*time.Millisecond), Deps: []int{0}},       // 2
			{Object: mk("/cast", 6, 26*time.Millisecond), Deps: []int{0}},       // 3
			{Object: mk("/thumbnail", 80, 45*time.Millisecond), Deps: []int{0}}, // 4
		},
	}
	app.AssignPriorities()
	return app
}

// VirtualHome builds the second real-world app (Fig 10, Table III): a
// category choice fetches ARObjectsID, which fetches the AR objects
// themselves; ARObjects is the high-priority object.
func VirtualHome() *appmodel.App {
	const domain = "api.virtualhome.example"
	app := &appmodel.App{
		Name:        "VirtualHome",
		ComposeTime: 10 * time.Millisecond,
		Requests: []appmodel.Request{
			{Object: &objstore.Object{
				URL: "http://" + domain + "/arobjectsid", App: "VirtualHome",
				Size: 2 << 10, TTL: 30 * time.Minute,
				Priority: objstore.PriorityLow, OriginDelay: 24 * time.Millisecond,
			}},
			{Object: &objstore.Object{
				URL: "http://" + domain + "/arobjects", App: "VirtualHome",
				Size: 90 << 10, TTL: 30 * time.Minute,
				Priority: objstore.PriorityHigh, OriginDelay: 48 * time.Millisecond,
			}, Deps: []int{0}},
		},
	}
	// Priorities follow Table III verbatim (ARObjects high, ARObjectsID
	// low); AssignPriorities would mark the whole two-node chain high.
	return app
}

// Generate builds the synthetic suite plus the two real apps, mirroring
// the paper's 30-app evaluation set. Pass IncludeReal=false via cfg by
// setting NumApps and using GenerateSynthetic directly when only
// synthetic apps are wanted.
func Generate(cfg GeneratorConfig) *Suite {
	cfg.applyDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	apps := []*appmodel.App{MovieTrailer(), VirtualHome()}
	apps = append(apps, GenerateSynthetic(cfg, rng)...)
	return assembleSuite(apps, cfg)
}

// GenerateSynthetic builds cfg.NumApps dummy apps with randomized DAGs in
// the shape the paper's generator produces: a root identifier request
// fanning out to 2–5 concurrent detail requests, occasionally with a
// second sequential level.
func GenerateSynthetic(cfg GeneratorConfig, rng *rand.Rand) []*appmodel.App {
	cfg.applyDefaults()
	apps := make([]*appmodel.App, 0, cfg.NumApps)
	for i := range cfg.NumApps {
		name := fmt.Sprintf("app%02d", i)
		domain := fmt.Sprintf("api.%s.example", name)
		fanout := 3 + rng.Intn(4) // 3–6 detail requests

		mkObj := func(path string) *objstore.Object {
			sizeKB := cfg.MinSizeKB + rng.Intn(cfg.MaxSizeKB-cfg.MinSizeKB+1)
			ttl := cfg.MinTTL + time.Duration(rng.Int63n(int64(cfg.MaxTTL-cfg.MinTTL+1)))
			delay := cfg.MinDelay + time.Duration(rng.Int63n(int64(cfg.MaxDelay-cfg.MinDelay+1)))
			return &objstore.Object{
				URL:         "http://" + domain + path,
				App:         name,
				Size:        sizeKB << 10,
				TTL:         ttl,
				Priority:    objstore.PriorityLow,
				OriginDelay: delay,
			}
		}

		app := &appmodel.App{Name: name, ComposeTime: cfg.ComposeTime}
		app.Requests = append(app.Requests, appmodel.Request{Object: mkObj("/id")})
		for j := range fanout {
			app.Requests = append(app.Requests, appmodel.Request{
				Object: mkObj(fmt.Sprintf("/detail%d", j)),
				Deps:   []int{0},
			})
		}
		// Half of the apps have a second sequential level hanging off
		// the first detail request (deeper critical paths).
		if rng.Float64() < 0.5 {
			app.Requests = append(app.Requests, appmodel.Request{
				Object: mkObj("/extra"),
				Deps:   []int{1},
			})
		}
		app.AssignPriorities()
		apps = append(apps, app)
	}
	return apps
}

// assembleSuite computes Zipf frequencies and the combined catalog.
func assembleSuite(apps []*appmodel.App, cfg GeneratorConfig) *Suite {
	// Zipf popularity over app ranks, normalized to the configured
	// average frequency ("the average frequency for all apps was set to
	// 3 times per minute").
	weights := make([]float64, len(apps))
	var sum float64
	for i := range apps {
		weights[i] = 1 / math.Pow(float64(i+1), cfg.ZipfS)
		sum += weights[i]
	}
	// Popularity rank follows app order (the real apps first), keeping
	// the workload mix stable as the app-quantity sweeps grow the suite.
	freq := make(map[string]float64, len(apps))
	for i, app := range apps {
		freq[app.Name] = weights[i] / sum * cfg.AvgFreq * float64(len(apps))
	}

	var objects []*objstore.Object
	for _, app := range apps {
		objects = append(objects, app.Objects()...)
	}
	return &Suite{Apps: apps, Freq: freq, Catalog: objstore.NewCatalog(objects...)}
}

// FetcherFor returns the caching client an app should use; the driver
// calls it once per app so each app gets its own client state (its own
// registry, DNS cache and stats), as each phone/emulator instance did in
// the testbed.
type FetcherFor func(app *appmodel.App) appmodel.Fetcher

// RunResult aggregates a driver run.
type RunResult struct {
	// PerApp maps app name to its app-level latency samples.
	PerApp map[string]*metrics.LatencyStats
	// Overall merges every app's samples.
	Overall metrics.LatencyStats
	// Executions counts completed app runs; Failures counts errored ones.
	Executions int
	Failures   int
}

// Run replays the suite against the system for the given virtual
// duration: every app executes on its own Poisson schedule at its Zipf
// frequency. It must be called from within a simulation task.
func Run(sim *vclock.Sim, suite *Suite, fetcherFor FetcherFor, duration time.Duration, seed int64) *RunResult {
	res := &RunResult{PerApp: make(map[string]*metrics.LatencyStats, len(suite.Apps))}
	drivers := vclock.NewGroup(sim)
	n := 0
	for _, app := range suite.Apps {
		freq := suite.Freq[app.Name]
		if freq <= 0 {
			continue
		}
		fetcher := fetcherFor(app)
		rng := rand.New(rand.NewSource(seed + int64(n)))
		n++
		stats := &metrics.LatencyStats{}
		res.PerApp[app.Name] = stats
		drivers.Go("drive:"+app.Name, func() {
			deadline := sim.Now().Add(duration)
			for {
				// Poisson inter-arrival at rate freq per minute.
				gap := time.Duration(rng.ExpFloat64() / freq * float64(time.Minute))
				if sim.Now().Add(gap).After(deadline) {
					return
				}
				sim.Sleep(gap)
				// Tasks of one Sim run one at a time: no lock needed.
				r := appmodel.Execute(sim, sim, app, fetcher)
				if r.Err != nil {
					res.Failures++
					continue
				}
				res.Executions++
				stats.Add(r.Latency)
				res.Overall.Add(r.Latency)
			}
		})
	}
	drivers.Wait()
	return res
}
