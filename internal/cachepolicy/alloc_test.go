//go:build !race

// Allocation budgets count heap allocations, which the race detector
// changes, so this file is left out of -race builds.

package cachepolicy

import (
	"fmt"
	"testing"
	"time"

	"apecache/internal/objstore"
	"apecache/internal/vclock"
)

// TestPutAtCapacityAllocs pins the admission path on a store shaped like
// the repository benchmark's miss-churn AP (320 × 16 KiB of capacity,
// 2 048 objects of 8 apps, one domain each). Once the store is warm, an
// admission that evicts allocates its new entry and the victim slice: the
// resident snapshot and every PACM pass run in reused scratch.
func TestPutAtCapacityAllocs(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() {
		s := NewStore(sim, 320*16<<10, 0, NewPACM(), nil)
		data := make([]byte, 16<<10)
		objs := make([]*objstore.Object, 2048)
		for i := range objs {
			app := fmt.Sprintf("app%d", i%8)
			objs[i] = testObj(fmt.Sprintf("http://%s.example/obj/%d", app, i), app, len(data), 1+i%2, time.Hour)
		}
		next := 0
		put := func() {
			o := objs[next%len(objs)]
			next += 3
			s.RecordRequest(o.App)
			if err := s.Put(o, data, 20*time.Millisecond); err != nil {
				t.Fatalf("Put: %v", err)
			}
		}
		for range 2 * len(objs) {
			put() // every URL seen, the store full
		}

		evictions := s.Stats().Evictions
		if allocs := testing.AllocsPerRun(500, put); allocs > 2 {
			t.Errorf("Put at capacity allocates %.0f times, want at most 2 (entry, victims)", allocs)
		}
		if s.Stats().Evictions == evictions {
			t.Fatal("no admission evicted: the budget measured nothing")
		}

		// The selection alone: the victim slice it returns, nothing else.
		entries := s.Entries()
		incoming := &Entry{Object: objs[1], Data: data, Expiry: sim.Now().Add(time.Hour), FetchLatency: 20 * time.Millisecond}
		var victims []*Entry
		allocs := testing.AllocsPerRun(200, func() {
			victims = s.policy.SelectVictims(sim.Now(), entries, incoming, s.capacity, s.freq)
		})
		if len(victims) == 0 || allocs != 1 {
			t.Errorf("SelectVictims on %d entries: %d victims, %.0f allocations; want victims and 1 allocation", len(entries), len(victims), allocs)
		}
	})
}
