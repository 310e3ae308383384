package experiments

import (
	"fmt"
	"time"

	"apecache/internal/appmodel"
	"apecache/internal/resmodel"
	"apecache/internal/testbed"
	"apecache/internal/vclock"
	"apecache/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "fig14",
		Title: "CPU/memory overhead of APE-CACHE on the WiFi AP",
		Run:   runFig14,
	})
}

// forwardingFetcher charges the router model for the bytes every client
// request relays through the AP (the AP forwards all WiFi traffic whether
// or not APE-CACHE is involved).
type forwardingFetcher struct {
	inner  appmodel.Fetcher
	router *resmodel.Router
}

func (f *forwardingFetcher) Get(url string) ([]byte, error) {
	body, err := f.inner.Get(url)
	f.router.Forward(len(body))
	return body, err
}

// runFig14 replays the 30-app workload twice — APE-CACHE-enabled apps vs
// regular apps fetching from the edge — and samples the router model.
func runFig14(cfg RunConfig) (*Result, error) {
	type sample struct {
		cpuMean, cpuMax, memMean, memMax float64
	}
	measure := func(system testbed.System) (sample, error) {
		suite := workload.Generate(workload.GeneratorConfig{NumApps: 28, Seed: cfg.Seed})
		var router *resmodel.Router
		err := vclock.Simulate("fig14", func(sim *vclock.Sim) error {
			router = resmodel.NewRouter(sim, resmodel.DefaultCosts())
			if system == testbed.SystemAPECache {
				router.EnableAPE()
			}
			tb, err := testbed.New(sim, system, testbed.Config{
				Suite:     suite,
				Seed:      cfg.Seed,
				Resources: router,
			})
			if err != nil {
				return err
			}
			duration := cfg.workloadDuration()
			// Sampler: every 10 s of virtual time, snapshot utilization.
			// The main task waits for its last tick on every return path:
			// Simulate shuts the clock down once main returns, and a
			// sampler cut short there would spin on a Sleep that no longer
			// advances time.
			sampler := vclock.NewGroup(sim)
			sampler.Go("fig14.sampler", func() {
				deadline := sim.Now().Add(duration)
				for sim.Now().Before(deadline) {
					sim.Sleep(10 * time.Second)
					if tb.AP != nil {
						router.SetCacheBytes(tb.AP.Store().Used())
					}
					router.Sample()
				}
			})
			defer sampler.Wait()
			fetcherFor := func(app *appmodel.App) appmodel.Fetcher {
				return &forwardingFetcher{inner: tb.FetcherFor(app), router: router}
			}
			res := workload.Run(sim, suite, fetcherFor, duration, cfg.Seed+77)
			if res.Failures > 0 {
				return fmt.Errorf("%d failed executions", res.Failures)
			}
			return nil
		})
		if err != nil {
			return sample{}, fmt.Errorf("fig14 %v: %w", system, err)
		}
		return sample{
			cpuMean: router.CPU.Mean(),
			cpuMax:  router.CPU.Max(),
			memMean: router.Mem.Mean(),
			memMax:  router.Mem.Max(),
		}, nil
	}

	ape, err := measure(testbed.SystemAPECache)
	if err != nil {
		return nil, err
	}
	regular, err := measure(testbed.SystemEdgeCache)
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID:     "fig14",
		Title:  "AP resource usage: APE-CACHE-enabled apps vs regular apps (5 MB cache, 30 apps)",
		Header: []string{"Configuration", "CPU mean %", "CPU max %", "Mem mean MB", "Mem max MB"},
		Rows: [][]string{
			{"Regular apps (edge only)", fmt.Sprintf("%.1f", regular.cpuMean), fmt.Sprintf("%.1f", regular.cpuMax),
				fmt.Sprintf("%.1f", regular.memMean), fmt.Sprintf("%.1f", regular.memMax)},
			{"APE-CACHE apps", fmt.Sprintf("%.1f", ape.cpuMean), fmt.Sprintf("%.1f", ape.cpuMax),
				fmt.Sprintf("%.1f", ape.memMean), fmt.Sprintf("%.1f", ape.memMax)},
			{"Overhead", fmt.Sprintf("+%.1f", ape.cpuMean-regular.cpuMean), fmt.Sprintf("+%.1f", ape.cpuMax-regular.cpuMax),
				fmt.Sprintf("+%.1f", ape.memMean-regular.memMean), fmt.Sprintf("+%.1f", ape.memMax-regular.memMax)},
		},
		Notes: []string{
			"paper: APE-CACHE adds at most ~6% CPU and ~13 MB of memory on the GL-MT1300",
		},
	}
	return res, nil
}
