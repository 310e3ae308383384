package controlplane

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"apecache/internal/httplite"
	"apecache/internal/simnet"
	"apecache/internal/telemetry"
	"apecache/internal/vclock"
)

// TestServerExposition checks the control plane serves every route on
// one port: a pushed snapshot lands in /fleet and the fleet counters,
// /alerts and /mesh/peers answer, and the telemetry exposition routes
// are mounted beside them.
func TestServerExposition(t *testing.T) {
	err := vclock.Simulate("controlplane", func(sim *vclock.Sim) error {
		net := simnet.New(sim, 8)
		net.SetLink("ap", "ctl", simnet.Path{Latency: 2 * time.Millisecond})
		tel := telemetry.New(sim)
		srv := New(sim, net.Node("ctl"), tel, FleetConfig{})
		if err := srv.Start(0); err != nil {
			return err
		}
		defer srv.Stop()
		addr := srv.Addr()
		if addr.Port != DefaultPort {
			t.Errorf("port = %d, want %d", addr.Port, DefaultPort)
		}

		http := httplite.NewClient(net.Node("ap"))
		body, err := telemetry.EncodeSnapshot(apSnapshot("ap:a", 1, sim.Now(), 10, 1, 1, 0))
		if err != nil {
			return err
		}
		push := httplite.NewRequest("POST", addr.Host, telemetry.DefaultSnapshotPath)
		push.Body = body
		if resp, err := http.Do(addr, push); err != nil || resp.Status != 200 {
			t.Errorf("push: %v (status %v)", err, resp)
		}
		if resp, err := http.Do(addr, push); err != nil || resp.Status != 409 {
			t.Errorf("repeated push: %v (status %v), want 409", err, resp)
		}

		get := func(path string) string {
			resp, err := http.Get(addr, addr.Host, path)
			if err != nil || resp.Status != 200 {
				t.Errorf("%s: %v (status %v)", path, err, resp)
				return ""
			}
			return string(resp.Body)
		}
		var view FleetView
		if err := json.Unmarshal([]byte(get("/fleet")), &view); err != nil || len(view.APs) != 1 || view.APs[0].AP != "ap:a" {
			t.Errorf("/fleet: %v, APs %+v", err, view.APs)
		}
		var alerts AlertsPayload
		if err := json.Unmarshal([]byte(get("/alerts")), &alerts); err != nil || len(alerts.Alerts) == 0 {
			t.Errorf("/alerts: %v, %d alerts", err, len(alerts.Alerts))
		}
		if got := get("/mesh/peers"); strings.TrimSpace(got) != "[]" {
			t.Errorf("/mesh/peers = %q, want []", got)
		}
		for _, path := range []string{"/debug/vars", "/debug/pprof", "/trace"} {
			get(path)
		}
		metrics := get("/metrics")
		for _, want := range []string{"wicache_fleet_snapshots_total 1", "wicache_fleet_snapshot_rejects_total 1", "coopmesh_peers 0"} {
			if !strings.Contains(metrics, want) {
				t.Errorf("/metrics lacks %q:\n%s", want, metrics)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
