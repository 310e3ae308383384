package experiments

import (
	"fmt"
	"time"

	"apecache/internal/cachepolicy"
	"apecache/internal/testbed"
	"apecache/internal/vclock"
	"apecache/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "ablations",
		Title: "Ablations of the design choices: dummy IP, fairness, prefetch, eviction policy",
		Run:   runAblations,
	})
}

// ablation is one design choice and the variants that compare it. Each
// ablation replays its own fixed suite, seed and virtual duration, so
// the table reads the same at every scale and seed.
type ablation struct {
	name     string
	apps     int   // synthetic apps in the suite
	seed     int64 // suite and testbed seed
	runSeed  int64 // workload driver seed
	duration time.Duration
	variants []ablationVariant
}

// ablationVariant is one side of an ablation: a system, a testbed
// config (Suite and Seed are filled in per run) and, for PACM, θ.
type ablationVariant struct {
	name   string
	system testbed.System
	cfg    testbed.Config
	theta  float64 // PACM fairness bound; 0 keeps the default
}

// ablations lists every ablation with fresh variants (a Config.Policy
// is stateful, so each run builds its own).
func ablations() []ablation {
	return []ablation{
		{"Dummy-IP short circuit", 6, 2, 4, 3 * time.Minute, []ablationVariant{
			{name: "on", system: testbed.SystemAPECache},
			{name: "off", system: testbed.SystemAPECache, cfg: testbed.Config{DisableDummyIP: true}},
		}},
		{"Fairness bound", 28, 1, 9, 3 * time.Minute, []ablationVariant{
			{name: "theta=0.4", system: testbed.SystemAPECache, theta: 0.4},
			{name: "theta=0.999", system: testbed.SystemAPECache, theta: 0.999},
		}},
		{"Dependency prefetch", 18, 5, 6, 4 * time.Minute, []ablationVariant{
			{name: "off", system: testbed.SystemAPECache},
			{name: "on", system: testbed.SystemAPECache, cfg: testbed.Config{EnablePrefetch: true}},
		}},
		{"Eviction policy", 28, 3, 8, 4 * time.Minute, []ablationVariant{
			{name: "PACM", system: testbed.SystemAPECache},
			{name: "LRU", system: testbed.SystemAPECacheLRU},
			{name: "GDSF", system: testbed.SystemAPECache, cfg: testbed.Config{Policy: cachepolicy.NewGDSF()}},
		}},
	}
}

// ablationMemo caches rendered rows by ablation and variant name for the
// lifetime of the process, like runMemo.
var ablationMemo = map[string][]string{}

func runAblations(RunConfig) (*Result, error) {
	res := &Result{
		ID:     "ablations",
		Title:  "Ablations (beyond the paper)",
		Header: []string{"Ablation", "Variant", "Mean lookup (ms)", "Hit ratio", "High-priority hit ratio"},
		Notes: []string{
			"each ablation replays a fixed suite, seed and 3-4 min of virtual time; scale and seed do not apply",
			"asserted: dummy-IP off > 3x lookup; prefetch raises the hit ratio; PACM beats LRU on both ratios",
			"reported, not ordered: the fairness bound and GDSF (a classic size-aware baseline)",
			"solver timing (wall clock, never goldened): go test -bench 'SelectVictims|SolveKeepSetDP' ./internal/cachepolicy",
		},
	}
	for _, a := range ablations() {
		for _, v := range a.variants {
			row, err := runAblation(a, v)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// runAblation runs one variant and renders its row.
func runAblation(a ablation, v ablationVariant) ([]string, error) {
	key := a.name + "/" + v.name
	if row, ok := ablationMemo[key]; ok {
		return row, nil
	}
	suite := workload.Generate(workload.GeneratorConfig{NumApps: a.apps, Seed: a.seed})
	var row []string
	err := vclock.Simulate("ablation", func(sim *vclock.Sim) error {
		cfg := v.cfg
		cfg.Suite, cfg.Seed = suite, a.seed
		tb, err := testbed.New(sim, v.system, cfg)
		if err != nil {
			return err
		}
		if v.theta > 0 {
			tb.AP.Store().Policy().(*cachepolicy.PACM).Theta = v.theta
		}
		if res := workload.Run(sim, suite, tb.FetcherFor, a.duration, a.runSeed); res.Failures > 0 {
			return fmt.Errorf("%d failed executions", res.Failures)
		}
		hits := tb.HitStats()
		row = []string{a.name, v.name, ms(tb.LookupStats().Mean()), ratio(hits.All.Ratio()), ratio(hits.High.Ratio())}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("ablation %s: %w", key, err)
	}
	ablationMemo[key] = row
	return row, nil
}
