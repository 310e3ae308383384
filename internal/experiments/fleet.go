package experiments

import (
	"fmt"
	"strings"
	"time"

	"apecache/internal/testbed"
	"apecache/internal/vclock"
)

func init() {
	register(Experiment{
		ID:    "fleet-health",
		Title: "Fleet observability under an AP brownout: health scores and SLO burn-rate alerting",
		Run:   runFleetHealth,
	})
}

// fleetBrownoutAP is the AP index degraded during the fault phase.
const fleetBrownoutAP = 7

// runFleetHealth boots a 16-AP fleet pushing telemetry snapshots to the
// Wi-Cache controller, then walks three phases — warm steady state, a
// brownout of one AP's edge uplink (latency and bandwidth collapse plus
// a cold-miss storm), and recovery — sampling the controller's fleet
// view after each. The run demonstrates the control plane end to end: a
// per-AP health score collapse confined to the browned-out AP, and a
// multi-window burn-rate SLO alert that fires during the fault and
// resolves after it clears.
func runFleetHealth(cfg RunConfig) (*Result, error) {
	phase := time.Duration(float64(2*time.Minute) * cfg.scale() * 4)
	if phase < 2*time.Minute {
		phase = 2 * time.Minute // burn windows need 90s of history to arm
	}

	res := &Result{
		ID:     "fleet-health",
		Title:  "Per-AP health and SLO alerting across a brownout (16 APs)",
		Header: []string{"Phase", "Min score", "Worst AP", "Healthy APs", "Alerts firing", "Firing scopes"},
		Notes: []string{
			"brownout = AP" + fmt.Sprintf("%02d", fleetBrownoutAP) + " edge uplink degraded 12ms/18MBps -> 250ms/2MBps plus cold-miss storm",
			"an alert fires when both short- and long-window burn rates reach the threshold; warm-up is fire-suppressed",
		},
	}
	err := vclock.Simulate("fleet-health", func(sim *vclock.Sim) error {
		f, err := testbed.NewFleet(sim, testbed.FleetConfig{Seed: cfg.Seed})
		if err != nil {
			return err
		}
		defer f.Stop()

		sample := func(label string) {
			v := f.Store.View()
			minScore, worst := 100.0, "-"
			healthy, aps := 0, 0
			for _, h := range v.APs {
				if !strings.HasPrefix(h.AP, "ap:") {
					continue // edge and client driver nodes also push
				}
				aps++
				if h.Status == "healthy" {
					healthy++
				}
				if h.Score < minScore {
					minScore = h.Score
					worst = h.AP
				}
			}
			var firing []string
			for _, a := range v.Alerts {
				if a.State == "firing" {
					firing = append(firing, a.SLO+"@"+a.Scope)
				}
			}
			scopes := strings.Join(firing, " ")
			if scopes == "" {
				scopes = "-"
			}
			res.Rows = append(res.Rows, []string{
				label,
				fmt.Sprintf("%.0f", minScore),
				worst,
				fmt.Sprintf("%d/%d", healthy, aps),
				fmt.Sprintf("%d", len(firing)),
				scopes,
			})
		}

		f.Drive(phase)
		sample("warm")
		f.SetBrownout(fleetBrownoutAP, true)
		f.Drive(phase)
		sample("brownout")
		f.SetBrownout(fleetBrownoutAP, false)
		f.Drive(phase)
		sample("recovered")

		for _, ev := range f.Store.AlertHistory() {
			res.Notes = append(res.Notes, fmt.Sprintf("%s %s %s@%s (short burn %.1f, long %.1f)",
				ev.Time.Format("15:04:05"), ev.Event, ev.SLO, ev.Scope, ev.ShortBurn, ev.LongBurn))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// FleetAlertOutcome reports whether the brownout scenario produced a
// firing and a resolving transition for the browned-out AP — the CI
// fleet-smoke gate.
func FleetAlertOutcome(res *Result) (fired, resolved bool) {
	scope := fmt.Sprintf("@ap:ap%02d", fleetBrownoutAP)
	for _, note := range res.Notes {
		if !strings.Contains(note, scope) {
			continue
		}
		if strings.Contains(note, " fire ") {
			fired = true
		}
		if strings.Contains(note, " resolve ") {
			resolved = true
		}
	}
	return fired, resolved
}
