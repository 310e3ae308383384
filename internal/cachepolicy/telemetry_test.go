package cachepolicy

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"apecache/internal/telemetry"
	"apecache/internal/vclock"
)

func TestStoreInstrumentCounters(t *testing.T) {
	runStore(t, 3<<10, NewPACM(), func(sim *vclock.Sim, s *Store) {
		tel := telemetry.New(sim)
		s.Instrument(tel, "test")

		a := testObj("http://a.example/1", "a", 1024, 2, time.Minute)
		b := testObj("http://a.example/2", "b", 1024, 1, time.Minute)
		c := testObj("http://a.example/3", "b", 2048, 1, time.Minute)
		if err := s.Put(a, a.Body(), 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(b, b.Body(), 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(a.URL); !ok {
			t.Fatal("miss on resident entry")
		}
		s.Get("http://a.example/nope")
		// c (2 KiB) forces eviction out of the 3 KiB budget.
		if err := s.Put(c, c.Body(), 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}

		m := tel.Metrics.Expand()
		if m[`test_store_lookups_total{result="hit"}`] != 1 || m[`test_store_lookups_total{result="miss"}`] != 1 {
			t.Errorf("lookup counters: %v", m)
		}
		if m["test_store_insertions_total"] != 3 {
			t.Errorf("insertions = %v", m["test_store_insertions_total"])
		}
		if m[`test_store_evictions_total{cause="capacity"}`] == 0 {
			t.Error("no capacity eviction counted")
		}
		if m["test_pacm_selection_seconds_count"] == 0 {
			t.Error("selection histogram never observed")
		}
		if m["test_store_entries"] != float64(s.Len()) {
			t.Errorf("entries gauge = %v, Len = %d", m["test_store_entries"], s.Len())
		}
		if m["test_store_used_bytes"] != float64(s.Used()) {
			t.Errorf("used gauge = %v", m["test_store_used_bytes"])
		}
		if _, ok := m[`test_store_app_bytes{app="b"}`]; !ok {
			t.Errorf("per-app bytes missing: %v", m)
		}

		// And the whole registry renders.
		var buf bytes.Buffer
		if err := tel.Metrics.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "# TYPE test_store_evictions_total counter") {
			t.Error("exposition missing eviction family")
		}
	})
}

func TestStorageReport(t *testing.T) {
	runStore(t, 64<<10, NewPACM(), func(sim *vclock.Sim, s *Store) {
		a := testObj("http://a.example/1", "video", 4096, 2, time.Minute)
		b := testObj("http://a.example/2", "video", 4096, 2, time.Minute)
		c := testObj("http://a.example/3", "maps", 1024, 1, time.Minute)
		if err := s.Put(a, a.Body(), time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(b, b.Body(), time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(c, c.Body(), time.Millisecond); err != nil {
			t.Fatal(err)
		}
		s.RecordRequest("video")
		s.RecordRequest("maps")

		report, gini := s.StorageReport()
		if len(report) != 2 {
			t.Fatalf("report has %d apps, want 2: %+v", len(report), report)
		}
		// Sorted by app name.
		if report[0].App != "maps" || report[1].App != "video" {
			t.Errorf("order: %s, %s", report[0].App, report[1].App)
		}
		if report[1].Bytes != 8192 || report[1].Entries != 2 {
			t.Errorf("video slice: %+v", report[1])
		}
		if report[0].Efficiency <= 0 || report[1].Efficiency <= 0 {
			t.Errorf("efficiencies not positive: %+v", report)
		}
		if report[1].Utility <= report[0].Utility {
			t.Errorf("video utility %v should exceed maps %v", report[1].Utility, report[0].Utility)
		}
		// video holds 8x the bytes at the same rate: clear inequality.
		if gini <= 0 || gini > 1 {
			t.Errorf("gini = %v", gini)
		}
	})
}
