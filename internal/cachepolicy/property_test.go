package cachepolicy

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"apecache/internal/vclock"
)

// TestGiniBoundsProperty: for any non-negative inputs, 0 ≤ G ≤ 1-1/n, and
// G is invariant under positive scaling.
func TestGiniBoundsProperty(t *testing.T) {
	f := func(raw []uint16, scaleRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		values := make(map[string]float64, len(raw))
		for i, v := range raw {
			values[fmt.Sprintf("app%d", i)] = float64(v)
		}
		g := Gini(values)
		if g < 0 || g > 1 {
			return false
		}
		n := float64(len(values))
		if g > 1-1/n+1e-9 {
			return false
		}
		scale := float64(scaleRaw%50) + 1
		scaled := make(map[string]float64, len(values))
		for k, v := range values {
			scaled[k] = v * scale
		}
		return math.Abs(Gini(scaled)-g) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDPKeepSetDominatesGreedyProperty: the exact DP keep-set utility is
// never below the greedy keep-set utility, and both fit in capacity.
func TestDPKeepSetDominatesGreedyProperty(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() {
		freq := NewFreqTracker(sim, 0.7, time.Minute)
		now := sim.Now()
		f := func(seeds []uint16) bool {
			if len(seeds) == 0 || len(seeds) > 24 {
				return true
			}
			entries := make([]*Entry, len(seeds))
			for i, s := range seeds {
				app := fmt.Sprintf("a%d", s%5)
				freq.Record(app)
				size := (int(s)%64 + 1) << 10
				entries[i] = &Entry{
					Object: testObj(fmt.Sprintf("http://%s.example/%d", app, i), app,
						size, 1+int(s)%2, time.Hour),
					Data:         make([]byte, size),
					Expiry:       now.Add(time.Duration(s%60+1) * time.Minute),
					FetchLatency: time.Duration(s%50+1) * time.Millisecond,
				}
			}
			avail := int64(96 << 10)
			greedy := greedyKeepSet(entries, avail, now, freq)
			exact := solveKeepSetDP(entries, avail, now, freq)

			gu := keepSetUtility(greedy, now, freq)
			eu := keepSetUtility(exact, now, freq)
			if eu+1e-6 < gu {
				return false // DP must dominate greedy
			}
			var gs, es int64
			for _, e := range greedy {
				gs += e.Size()
			}
			for _, e := range exact {
				es += e.Size()
			}
			return gs <= avail && es <= avail
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Error(err)
		}
	})
}

// TestUtilityNonNegativeProperty: utilities are never negative and decay
// to zero at expiry.
func TestUtilityNonNegativeProperty(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() {
		freq := NewFreqTracker(sim, 0.7, time.Minute)
		freq.Record("a")
		now := sim.Now()
		f := func(remainMin uint8, latencyMS uint8, prio bool) bool {
			p := 1
			if prio {
				p = 2
			}
			e := entryFor("http://a.example/x", "a", 1024, p,
				time.Duration(remainMin)*time.Minute,
				time.Duration(latencyMS)*time.Millisecond, now)
			u := Utility(e, now, freq)
			if u < 0 {
				return false
			}
			// After expiry utility must be exactly zero.
			return Utility(e, e.Expiry.Add(time.Second), freq) == 0
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Error(err)
		}
	})
}

// TestLRUSelectVictimsFreesEnoughProperty: LRU victim sets always free at
// least the needed space.
func TestLRUSelectVictimsFreesEnoughProperty(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() {
		freq := NewFreqTracker(sim, 0.7, time.Minute)
		now := sim.Now()
		f := func(sizes []uint16, incomingKB uint8) bool {
			if len(sizes) == 0 || len(sizes) > 40 {
				return true
			}
			entries := make([]*Entry, len(sizes))
			var used int64
			for i, s := range sizes {
				size := (int(s)%100 + 1) << 10
				entries[i] = entryFor(fmt.Sprintf("http://a.example/%d", i), "a",
					size, 1, time.Hour, time.Millisecond, now.Add(-time.Duration(i)*time.Second))
				entries[i].LastUsed = now.Add(-time.Duration(i) * time.Second)
				used += int64(size)
			}
			capacity := used/2 + 1
			incoming := entryFor("http://a.example/in", "a", (int(incomingKB)%50+1)<<10, 1,
				time.Hour, time.Millisecond, now)
			if incoming.Size() > capacity {
				return true // the store rejects these before the policy
			}
			victims := NewLRU().SelectVictims(now, entries, incoming, capacity, freq)
			var freed int64
			for _, v := range victims {
				freed += v.Size()
			}
			return used-freed+incoming.Size() <= capacity
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Error(err)
		}
	})
}
