package controlplane

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"apecache/internal/telemetry"
	"apecache/internal/vclock"
)

// apSnapshot builds a minimal AP snapshot with the counters the stock
// SLOs and health scoring read.
func apSnapshot(node string, seq uint64, t time.Time, hits, misses, deleg, delegErrs float64) *telemetry.Snapshot {
	hit := `apcache_cache_serves_total{` + telemetry.LabelPair("result", "hit") + `}`
	miss := `apcache_cache_serves_total{` + telemetry.LabelPair("result", "miss") + `}`
	return &telemetry.Snapshot{
		Node: node, Seq: seq, Time: t,
		Counters: map[string]float64{
			hit:                               hits,
			miss:                              misses,
			"apcache_delegations_total":       deleg,
			"apcache_delegation_errors_total": delegErrs,
		},
	}
}

func TestIngestRejectsStaleSeq(t *testing.T) {
	env := &vclock.Real{}
	f := NewFleetStore(env, nil, FleetConfig{})
	now := env.Now()
	if err := f.Ingest(apSnapshot("ap:a", 2, now, 10, 1, 0, 0)); err != nil {
		t.Fatalf("first ingest: %v", err)
	}
	if err := f.Ingest(apSnapshot("ap:a", 2, now, 11, 1, 0, 0)); err == nil {
		t.Error("duplicate seq accepted")
	}
	if err := f.Ingest(apSnapshot("ap:a", 1, now, 11, 1, 0, 0)); err == nil {
		t.Error("regressed seq accepted")
	}
	if err := f.Ingest(apSnapshot("ap:a", 3, now, 11, 1, 0, 0)); err != nil {
		t.Errorf("next seq rejected: %v", err)
	}
}

func TestBurnSeriesErrFrac(t *testing.T) {
	base := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	var s burnSeries
	// 100 requests per 10s step; errors only between t=30s and t=50s.
	cum := []struct {
		at          time.Duration
		good, total float64
	}{
		{0, 100, 100},
		{10 * time.Second, 200, 200},
		{20 * time.Second, 300, 300},
		{30 * time.Second, 400, 400},
		{40 * time.Second, 450, 500}, // 50 errors
		{50 * time.Second, 500, 600}, // 50 more
		{60 * time.Second, 600, 700}, // clean again
	}
	for _, p := range cum {
		s.add(base.Add(p.at), p.good, p.total)
	}
	now := base.Add(60 * time.Second)
	// Trailing 20s window: ref = t=40s point; 150 requests, 100 bad... no:
	// delta total = 700-500 = 200, delta good = 600-450 = 150 → 0.25.
	if got := s.errFrac(now, 20*time.Second); got != 0.25 {
		t.Errorf("errFrac(20s) = %v, want 0.25", got)
	}
	// Full minute: 600 requests, 100 bad.
	if got, want := s.errFrac(now, time.Minute), 100.0/600.0; got != want {
		t.Errorf("errFrac(60s) = %v, want %v", got, want)
	}
	// Window older than the series falls back to the oldest point.
	if got, want := s.errFrac(now, time.Hour), 100.0/600.0; got != want {
		t.Errorf("errFrac(1h) = %v, want %v", got, want)
	}
	// Empty window (no new traffic) reports no errors.
	if got := s.errFrac(now.Add(time.Hour), time.Second); got != 0 {
		t.Errorf("errFrac over idle window = %v, want 0", got)
	}
}

// TestAlertEngineFireResolve drives one ratio SLO through warm-up, a
// fault, and recovery, checking the multi-window state machine.
func TestAlertEngineFireResolve(t *testing.T) {
	slo := SLO{
		Name: "err-ratio", Good: []string{"good"}, Total: []string{"total"},
		Objective: 0.9, Short: 30 * time.Second, Long: 90 * time.Second,
		FireBurn: 2, ResolveBurn: 1,
	}
	e := newAlertEngine([]SLO{slo})
	base := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	var good, total float64
	step := func(at time.Duration, errRate float64) *alertState {
		total += 100
		good += 100 * (1 - errRate)
		now := base.Add(at)
		e.observe(&e.slos[0], FleetScope, now, good, total)
		e.evaluate(now)
		return e.states[alertKey("err-ratio", FleetScope)]
	}

	// Total outage during warm-up must not fire (series younger than Long).
	st := step(0, 1)
	st = step(30*time.Second, 1)
	if st != nil && st.firing {
		t.Fatal("fired during warm-up")
	}
	// Clean traffic past warm-up: stays ok.
	for d := 60 * time.Second; d <= 240*time.Second; d += 30 * time.Second {
		st = step(d, 0)
	}
	if st.firing {
		t.Fatal("fired on clean traffic")
	}
	// Sustained 50% errors: burn 5 ≥ 2 on both windows once the long
	// window fills with errors.
	var firedAt time.Duration
	for d := 270 * time.Second; d <= 420*time.Second; d += 30 * time.Second {
		if st = step(d, 0.5); st.firing {
			firedAt = d
			break
		}
	}
	if !st.firing {
		t.Fatalf("never fired under sustained errors (short %.1f long %.1f)", st.shortBurn, st.longBurn)
	}
	// Recovery: short window drains to ≤ ResolveBurn well before long.
	for d := firedAt + 30*time.Second; d <= firedAt+180*time.Second; d += 30 * time.Second {
		if st = step(d, 0); !st.firing {
			break
		}
	}
	if st.firing {
		t.Fatalf("never resolved after recovery (short %.1f long %.1f)", st.shortBurn, st.longBurn)
	}
	if st.lastFired.IsZero() || st.lastResolved.IsZero() || !st.lastResolved.After(st.lastFired) {
		t.Errorf("transition timestamps: fired %v resolved %v", st.lastFired, st.lastResolved)
	}
	h := e.history()
	if len(h) != 2 || h[0].Event != "fire" || h[1].Event != "resolve" {
		t.Errorf("history = %+v, want fire then resolve", h)
	}
}

// TestHealthStaleSnapshotPenalty: an AP that stops pushing decays
// through degraded into stale.
func TestHealthStaleSnapshotPenalty(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() {
		f := NewFleetStore(sim, nil, FleetConfig{SnapshotInterval: 5 * time.Second})
		ingest := func(seq uint64) {
			if err := f.Ingest(apSnapshot("ap:a", seq, sim.Now(), 90, 10, 0, 0)); err != nil {
				t.Errorf("ingest: %v", err)
			}
		}
		ingest(1)
		sim.Sleep(5 * time.Second)
		ingest(2)

		v := f.View()
		if len(v.APs) != 1 || v.APs[0].Status != "healthy" {
			t.Fatalf("fresh AP: %+v", v.APs)
		}

		// Push nothing for 10 intervals: age 50s ≫ 3×interval.
		sim.Sleep(50 * time.Second)
		v = f.View()
		h := v.APs[0]
		if h.Status != "stale" {
			t.Errorf("silent AP status = %s, want stale", h.Status)
		}
		if h.Score >= 100 {
			t.Errorf("silent AP score = %v, want penalized", h.Score)
		}
		if h.Penalties["stale-snapshot"] <= 0 {
			t.Errorf("no stale-snapshot penalty: %+v", h.Penalties)
		}

		// Resuming pushes restores health.
		ingest(3)
		v = f.View()
		if v.APs[0].Status != "healthy" {
			t.Errorf("recovered AP status = %s, want healthy", v.APs[0].Status)
		}
	})
	sim.Shutdown()
	sim.Wait()
	if err := sim.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetConcurrentIngestView hammers Ingest from several pusher
// goroutines while readers pull View/Alerts — meaningful under -race,
// mirroring realnet where pushes and reads share nothing but the store.
func TestFleetConcurrentIngestView(t *testing.T) {
	env := &vclock.Real{}
	tel := telemetry.New(env)
	f := NewFleetStore(env, tel, FleetConfig{})
	const pushers, pushes, readers = 4, 50, 2

	var wg sync.WaitGroup
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			node := fmt.Sprintf("ap:ap%02d", p)
			for i := 1; i <= pushes; i++ {
				snap := apSnapshot(node, uint64(i), env.Now(), float64(9*i), float64(i), float64(i), 0)
				snap.Hists = map[string]telemetry.HistData{
					"apcache_serve_seconds": {
						Bounds: telemetry.DurationBuckets,
						Counts: make([]uint64, len(telemetry.DurationBuckets)+1),
					},
				}
				snap.Hists["apcache_serve_seconds"].Counts[2] = uint64(10 * i)
				if err := f.Ingest(snap); err != nil {
					t.Errorf("ingest %s/%d: %v", node, i, err)
					return
				}
			}
		}(p)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				v := f.View()
				if len(v.APs) > pushers {
					t.Errorf("view has %d APs, max %d", len(v.APs), pushers)
					return
				}
				f.Alerts()
				f.AlertHistory()
			}
		}()
	}
	wg.Wait()

	v := f.View()
	if len(v.APs) != pushers {
		t.Fatalf("final view has %d APs, want %d", len(v.APs), pushers)
	}
	var total uint64
	for _, l := range v.Latency {
		if l.Metric == "apcache_serve_seconds" {
			total = l.Count
		}
	}
	if want := uint64(pushers * 10 * pushes); total != want {
		t.Errorf("merged serve count = %d, want %d", total, want)
	}
}

// TestFleetMissCauseMerge checks that per-AP apcache_miss_cause_total
// counters sum into the fleet view's breakdown in deterministic cause
// order, and that ledger-off fleets render no breakdown at all.
func TestFleetMissCauseMerge(t *testing.T) {
	env := &vclock.Real{}
	f := NewFleetStore(env, nil, FleetConfig{})
	now := env.Now()

	off := apSnapshot("ap:off", 1, now, 10, 1, 0, 0)
	if err := f.Ingest(off); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if v := f.View(); len(v.MissCauses) != 0 {
		t.Fatalf("ledger-off fleet has a miss-cause breakdown: %+v", v.MissCauses)
	}

	cause := func(c string) string { return `apcache_miss_cause_total{cause="` + c + `"}` }
	a := apSnapshot("ap:a", 1, now, 10, 1, 0, 0)
	a.Counters[cause("cold")] = 5
	a.Counters[cause("purged")] = 2
	b := apSnapshot("ap:b", 1, now, 10, 1, 0, 0)
	b.Counters[cause("cold")] = 3
	b.Counters[cause("expired")] = 7
	if err := f.Ingest(a); err != nil {
		t.Fatalf("ingest a: %v", err)
	}
	if err := f.Ingest(b); err != nil {
		t.Fatalf("ingest b: %v", err)
	}

	v := f.View()
	want := []FleetMissCause{{"cold", 8}, {"expired", 7}, {"purged", 2}}
	if len(v.MissCauses) != len(want) {
		t.Fatalf("breakdown = %+v, want %+v", v.MissCauses, want)
	}
	for i, w := range want {
		if v.MissCauses[i] != w {
			t.Fatalf("breakdown[%d] = %+v, want %+v", i, v.MissCauses[i], w)
		}
	}
}
