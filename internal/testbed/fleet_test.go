package testbed

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"apecache/internal/controlplane"
	"apecache/internal/httplite"
	"apecache/internal/vclock"
)

// fleetRun boots a fleet, drives warm traffic for warm, optionally
// browns out AP 7 for brownout then recovers for recover, and returns
// the /fleet and /alerts response bodies plus the parsed view.
func fleetRun(t *testing.T, cfg FleetConfig, warm, brownout, recover time.Duration) (fleetBody, alertsBody string, view controlplane.FleetView) {
	t.Helper()
	err := vclock.Simulate("main", func(sim *vclock.Sim) error {
		f, err := NewFleet(sim, cfg)
		if err != nil {
			return fmt.Errorf("NewFleet: %w", err)
		}
		f.Drive(warm)
		if brownout > 0 {
			target := 7 % len(f.APs)
			f.SetBrownout(target, true)
			f.Drive(brownout)
			f.SetBrownout(target, false)
			f.Drive(recover)
		}
		http := httplite.NewClient(f.Net.Node(clusterClientName(0)))
		ctl := f.Control.Addr()
		resp, err := http.Get(ctl, ctl.Host, "/fleet")
		if err != nil || resp.Status != 200 {
			return fmt.Errorf("/fleet: %v (resp %+v)", err, resp)
		}
		fleetBody = string(resp.Body)
		resp, err = http.Get(ctl, ctl.Host, "/alerts")
		if err != nil || resp.Status != 200 {
			return fmt.Errorf("/alerts: %v", err)
		}
		alertsBody = string(resp.Body)
		if err := json.Unmarshal([]byte(fleetBody), &view); err != nil {
			return fmt.Errorf("parse /fleet: %w", err)
		}
		return f.Stop()
	})
	if err != nil {
		t.Fatal(err)
	}
	return fleetBody, alertsBody, view
}

// TestFleetSixteenAPs boots the default 16-AP fleet, runs warm traffic,
// and checks the fleet view carries healthy scores for every AP, merged
// latency distributions, and at least one exemplar trace ID.
func TestFleetSixteenAPs(t *testing.T) {
	_, _, view := fleetRun(t, FleetConfig{}, 2*time.Minute, 0, 0)
	var aps int
	for _, h := range view.APs {
		if !strings.HasPrefix(h.AP, "ap:") {
			continue // edge and client driver nodes report too
		}
		aps++
		if h.Status != "healthy" || h.Score != 100 {
			t.Errorf("%s: status %s score %.0f, want healthy 100", h.AP, h.Status, h.Score)
		}
	}
	if aps != 16 {
		t.Fatalf("fleet view has %d APs, want 16", aps)
	}
	var sawServe, sawExemplar bool
	for _, l := range view.Latency {
		if l.Metric == "apcache_serve_seconds" {
			sawServe = true
			if l.Count == 0 || l.P99Ms <= 0 || l.P99Ms > 5 {
				t.Errorf("merged serve latency implausible: %+v", l)
			}
		}
		if len(l.Exemplars) > 0 && l.Exemplars[0].Trace != "" {
			sawExemplar = true
		}
	}
	if !sawServe {
		t.Error("no merged apcache_serve_seconds distribution")
	}
	if !sawExemplar {
		t.Error("no exemplar trace IDs in fleet view")
	}
	if len(view.Alerts) == 0 {
		t.Error("no alert statuses in fleet view")
	}
	for _, a := range view.Alerts {
		if a.State != "ok" {
			t.Errorf("alert %s/%s firing on a healthy fleet", a.SLO, a.Scope)
		}
	}
}

// TestFleetDeterminism runs the same brownout scenario twice and
// demands byte-identical /fleet and /alerts bodies: every timestamp in
// the fleet pipeline must come from the virtual clock, never wall time.
func TestFleetDeterminism(t *testing.T) {
	cfg := FleetConfig{NumAPs: 4}
	f1, a1, _ := fleetRun(t, cfg, 100*time.Second, 60*time.Second, 40*time.Second)
	f2, a2, _ := fleetRun(t, cfg, 100*time.Second, 60*time.Second, 40*time.Second)
	if f1 != f2 {
		t.Errorf("/fleet bodies differ between identical runs:\n--- run1\n%s\n--- run2\n%s", f1, f2)
	}
	if a1 != a2 {
		t.Errorf("/alerts bodies differ between identical runs:\n--- run1\n%s\n--- run2\n%s", a1, a2)
	}
}

// TestFleetBrownoutAlert injects a brownout at one AP and checks the
// per-AP burn-rate alerts fire during the fault and resolve after.
func TestFleetBrownoutAlert(t *testing.T) {
	_, _, view := fleetRun(t, FleetConfig{}, 2*time.Minute, 2*time.Minute, 2*time.Minute)
	scope := "ap:ap07"
	var fired, resolved bool
	for _, a := range view.Alerts {
		if a.Scope != scope {
			if a.State != "ok" {
				t.Errorf("unexpected firing alert %s/%s", a.SLO, a.Scope)
			}
			continue
		}
		if !a.LastFired.IsZero() {
			fired = true
		}
		if a.State == "ok" && !a.LastResolved.IsZero() {
			resolved = true
		}
		if a.State == "firing" {
			t.Errorf("alert %s/%s still firing after recovery", a.SLO, a.Scope)
		}
	}
	if !fired {
		t.Errorf("no alert fired for %s during brownout; alerts: %+v", scope, view.Alerts)
	}
	if !resolved {
		t.Errorf("no alert resolved for %s after recovery", scope)
	}
}
