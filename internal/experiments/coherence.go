package experiments

import (
	"bytes"
	"fmt"
	"time"

	"apecache/internal/coherence"
	"apecache/internal/objstore"
	"apecache/internal/testbed"
	"apecache/internal/vclock"
	"apecache/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "coherence",
		Title: "Coherence under a mutating origin: TTL-only vs push invalidation vs stale-while-revalidate",
		Run:   runCoherence,
	})
}

// coherenceModes pairs the swept modes with their display labels.
var coherenceModes = []struct {
	label string
	mode  coherence.Mode
}{
	{"TTL-only", coherence.ModeOff},
	{"Invalidate", coherence.ModeInvalidate},
	{"SWR", coherence.ModeSWR},
}

// coherenceOutcome aggregates one mode's run; the ledger capture also
// carries the run's hit ratio.
type coherenceOutcome struct {
	purges  int
	fetches int
	stale   int
	ledger  *explainOutcome
}

// coherenceSchedule times the mutating-origin schedule: how long it is
// measured, how often the origin mutates, and how often the driver
// fetches.
func coherenceSchedule(cfg RunConfig) (duration, mutateEvery, fetchEvery time.Duration) {
	duration = cfg.workloadDuration() / 6
	if duration < 30*time.Second {
		duration = 30 * time.Second
	}
	return duration, duration / 6, 2 * time.Second
}

// runCoherence replays the same mutating-origin schedule against an
// APE-CACHE AP in each coherence mode. A driver fetches a fixed set of
// objects on a steady cadence while the origin periodically mutates one of
// them and publishes the purge on the bus; every fetched body is compared
// against the origin's current version to count stale serves. Each probe
// lands right after the bus relay, inside the stale-while-revalidate
// window, so the modes' signatures separate: TTL-only keeps serving the
// old bytes until the TTL would expire, push invalidation serves fresh at
// the price of a miss per purge, and SWR bounds staleness at one serve per
// purged object without giving up the hit.
func runCoherence(cfg RunConfig) (*Result, error) {
	res := &Result{
		ID:     "coherence",
		Title:  "Stale serves and hit ratio under a mutating origin",
		Header: []string{"Mode", "Purges", "Fetches", "Stale serves", "Stale/purge", "Hit ratio"},
		Notes: []string{
			"stale serve = fetched body differs from the origin's version at fetch time",
			"TTL-only never hears about mutations, so copies stay stale until their TTL runs out",
			"Invalidate evicts on purge (always fresh, one miss per purge); SWR serves the purged copy at most once while revalidating in the background, keeping the hit ratio",
		},
	}
	for _, m := range coherenceModes {
		out, err := runCoherenceMode(m.mode, cfg)
		if err != nil {
			return nil, fmt.Errorf("coherence %s: %w", m.label, err)
		}
		perPurge := 0.0
		if out.purges > 0 {
			perPurge = float64(out.stale) / float64(out.purges)
		}
		res.Rows = append(res.Rows, []string{
			m.label,
			fmt.Sprintf("%d", out.purges),
			fmt.Sprintf("%d", out.fetches),
			fmt.Sprintf("%d", out.stale),
			fmt.Sprintf("%.2f", perPurge),
			ratio(out.ledger.hitRatio),
		})
	}
	return res, nil
}

// runCoherenceMode executes the mutating-origin schedule for one mode,
// with the decision ledger on.
func runCoherenceMode(mode coherence.Mode, cfg RunConfig) (*coherenceOutcome, error) {
	duration, mutateEvery, fetchEvery := coherenceSchedule(cfg)
	suite := workload.Generate(workload.GeneratorConfig{NumApps: 4, Seed: cfg.Seed + 33})
	out := &coherenceOutcome{}
	err := vclock.Simulate("coherence", func(sim *vclock.Sim) error {
		tb, err := testbed.New(sim, testbed.SystemAPECache, testbed.Config{
			Suite: suite, Seed: cfg.Seed, Coherence: mode, DecisionLog: true,
		})
		if err != nil {
			return err
		}
		app := suite.Apps[0]
		objects := app.Objects()
		fetcher := tb.FetcherFor(app)

		fetch := func(o *objstore.Object) error {
			body, err := fetcher.Get(o.URL)
			if err != nil {
				return err
			}
			out.fetches++
			if !bytes.Equal(body, o.Body()) {
				out.stale++
			}
			return nil
		}

		// Warm every tracked object and let the background fills land
		// before measuring.
		for _, o := range objects {
			if _, err := fetcher.Get(o.URL); err != nil {
				return err
			}
		}
		sim.Sleep(2 * time.Second)

		start := sim.Now()
		nextMutate := start.Add(mutateEvery)
		mutations := 0
		for sim.Now().Sub(start) < duration {
			if !sim.Now().Before(nextMutate) {
				target := objects[mutations%len(objects)]
				mutations++
				nextMutate = nextMutate.Add(mutateEvery)
				if _, err := tb.MutateObject(target.URL); err != nil {
					return err
				}
				out.purges++
				// Probe inside the stale window: the bus relay has landed
				// but the background revalidation is still in flight.
				sim.Sleep(25 * time.Millisecond)
				if err := fetch(target); err != nil {
					return err
				}
				sim.Sleep(fetchEvery)
				continue
			}
			for _, o := range objects {
				if err := fetch(o); err != nil {
					return err
				}
			}
			sim.Sleep(fetchEvery)
		}
		out.ledger = captureLedger(tb)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
