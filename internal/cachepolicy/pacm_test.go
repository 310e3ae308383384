package cachepolicy

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"apecache/internal/vclock"
)

func entryFor(url, app string, size int, prio int, remaining time.Duration, fetch time.Duration, now time.Time) *Entry {
	return &Entry{
		Object:       testObj(url, app, size, prio, remaining),
		Data:         make([]byte, size),
		Expiry:       now.Add(remaining),
		FetchLatency: fetch,
		LastUsed:     now,
		Inserted:     now,
	}
}

func TestGiniProperties(t *testing.T) {
	if g := Gini(map[string]float64{"a": 5, "b": 5, "c": 5}); g != 0 {
		t.Errorf("equal values Gini = %f, want 0", g)
	}
	// One app hoards everything: Gini approaches (A-1)/A.
	g := Gini(map[string]float64{"a": 100, "b": 0, "c": 0, "d": 0})
	if math.Abs(g-0.75) > 1e-9 {
		t.Errorf("extreme Gini = %f, want 0.75", g)
	}
	if g := Gini(nil); g != 0 {
		t.Errorf("empty Gini = %f, want 0", g)
	}
	if g := Gini(map[string]float64{"a": 3}); g != 0 {
		t.Errorf("single-app Gini = %f, want 0", g)
	}
	// Gini is scale-invariant.
	a := Gini(map[string]float64{"a": 1, "b": 2, "c": 3})
	b := Gini(map[string]float64{"a": 10, "b": 20, "c": 30})
	if math.Abs(a-b) > 1e-12 {
		t.Errorf("Gini not scale-invariant: %f vs %f", a, b)
	}
	if a < 0 || a > 1 {
		t.Errorf("Gini out of [0,1]: %f", a)
	}
}

func TestUtilityOrdering(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() {
		f := NewFreqTracker(sim, 0.7, time.Minute)
		for range 10 {
			f.Record("hot")
		}
		f.Record("cold")
		now := sim.Now()

		base := entryFor("http://h.example/1", "hot", 1000, 1, 30*time.Minute, 30*time.Millisecond, now)
		higherPrio := entryFor("http://h.example/2", "hot", 1000, 2, 30*time.Minute, 30*time.Millisecond, now)
		longerTTL := entryFor("http://h.example/3", "hot", 1000, 1, 60*time.Minute, 30*time.Millisecond, now)
		slowerFetch := entryFor("http://h.example/4", "hot", 1000, 1, 30*time.Minute, 60*time.Millisecond, now)
		coldApp := entryFor("http://c.example/1", "cold", 1000, 1, 30*time.Minute, 30*time.Millisecond, now)

		ub := Utility(base, now, f)
		for name, e := range map[string]*Entry{
			"priority": higherPrio, "ttl": longerTTL, "fetch-latency": slowerFetch,
		} {
			if u := Utility(e, now, f); u <= ub {
				t.Errorf("%s should raise utility: %f <= %f", name, u, ub)
			}
		}
		if u := Utility(coldApp, now, f); u >= ub {
			t.Errorf("cold app should lower utility: %f >= %f", u, ub)
		}
		// Expired entries have zero utility.
		expired := entryFor("http://h.example/5", "hot", 1000, 2, time.Minute, 30*time.Millisecond, now)
		if u := Utility(expired, now.Add(2*time.Minute), f); u != 0 {
			t.Errorf("expired utility = %f, want 0", u)
		}
	})
}

func TestPACMPrefersHighPriorityUnderPressure(t *testing.T) {
	runStore(t, 10<<10, NewPACM(), func(sim *vclock.Sim, s *Store) {
		// Equal everything except priority; cache fits only 2 of 3.
		for i, prio := range []int{1, 2, 2} {
			o := testObj(fmt.Sprintf("http://a.example/%d", i), "a", 4<<10, prio, time.Hour)
			s.RecordRequest("a")
			if err := s.Put(o, make([]byte, o.Size), 30*time.Millisecond); err != nil {
				t.Errorf("Put: %v", err)
				return
			}
		}
		if _, ok := s.Get("http://a.example/0"); ok {
			t.Error("low-priority object survived over high-priority peers")
		}
		for _, url := range []string{"http://a.example/1", "http://a.example/2"} {
			if _, ok := s.Get(url); !ok {
				t.Errorf("high-priority %s was evicted", url)
			}
		}
	})
}

func TestPACMFairnessRestrainsHoardingApp(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() {
		f := NewFreqTracker(sim, 0.7, time.Minute)
		// Both apps equally popular.
		for range 10 {
			f.Record("hog")
			f.Record("tiny")
		}
		sim.Sleep(time.Minute)
		now := sim.Now()

		// hog holds many big high-priority objects; tiny wants one small one.
		var entries []*Entry
		for i := range 8 {
			entries = append(entries, entryFor(fmt.Sprintf("http://hog.example/%d", i), "hog",
				10<<10, 2, time.Hour, 50*time.Millisecond, now))
		}
		incoming := entryFor("http://tiny.example/0", "tiny", 1<<10, 1, time.Hour, 10*time.Millisecond, now)

		p := NewPACM()
		victims := p.SelectVictims(now, entries, incoming, 82<<10, f)

		// Without fairness all 8 hog entries fit (80 KB + 1 KB <= 81 KB
		// available); the Gini constraint must force some hog evictions.
		if len(victims) == 0 {
			t.Error("fairness constraint produced no evictions for a hoarding app")
		}
		for _, v := range victims {
			if v.Object.App != "hog" {
				t.Errorf("victim from app %q, want hog", v.Object.App)
			}
		}
		// And the surviving set must satisfy the bound.
		kept := keepAfter(entries, victims)
		eff := referenceStorageEfficiency(kept, incoming, newRefRateCache(f))
		if g := Gini(eff); g > p.Theta+1e-9 {
			t.Errorf("post-eviction Gini = %f > θ=%f", g, p.Theta)
		}
	})
}

// greedyKeepSet is PACM's capacity-only keep-set, through the public
// path: θ = 1 never binds (a Gini coefficient stays below 1), and a nil
// incoming leaves all of avail to the resident entries.
func greedyKeepSet(entries []*Entry, avail int64, now time.Time, freq *FreqTracker) []*Entry {
	return keepAfter(entries, (&PACM{Theta: 1}).SelectVictims(now, entries, nil, avail, freq))
}

// keepSetUtility sums the utilities of a keep-set.
func keepSetUtility(keep []*Entry, now time.Time, freq *FreqTracker) float64 {
	var sum float64
	for _, e := range keep {
		sum += Utility(e, now, freq)
	}
	return sum
}

func keepAfter(entries, victims []*Entry) []*Entry {
	evicted := make(map[*Entry]bool, len(victims))
	for _, v := range victims {
		evicted[v] = true
	}
	var keep []*Entry
	for _, e := range entries {
		if !evicted[e] {
			keep = append(keep, e)
		}
	}
	return keep
}

func TestPACMGreedyCloseToExactDP(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() {
		f := NewFreqTracker(sim, 0.7, time.Minute)
		rng := rand.New(rand.NewSource(21))
		now := sim.Now()
		for trial := range 30 {
			apps := []string{"a", "b", "c"}
			for _, a := range apps {
				for range 1 + rng.Intn(8) {
					f.Record(a)
				}
			}
			var entries []*Entry
			for i := range 20 {
				app := apps[rng.Intn(len(apps))]
				entries = append(entries, entryFor(
					fmt.Sprintf("http://%s.example/t%d-%d", app, trial, i), app,
					(1+rng.Intn(50))<<10, 1+rng.Intn(2),
					time.Duration(5+rng.Intn(55))*time.Minute,
					time.Duration(20+rng.Intn(30))*time.Millisecond, now))
			}
			avail := int64(200 << 10)
			greedy := greedyKeepSet(entries, avail, now, f)
			exact := solveKeepSetDP(entries, avail, now, f)
			gu := keepSetUtility(greedy, now, f)
			eu := keepSetUtility(exact, now, f)
			if eu == 0 {
				continue
			}
			if gu < 0.85*eu {
				t.Errorf("trial %d: greedy %.1f < 85%% of exact %.1f", trial, gu, eu)
			}
			// The exact keep-set must itself fit.
			var sz int64
			for _, e := range exact {
				sz += e.Size()
			}
			if sz > avail {
				t.Errorf("trial %d: DP keep-set overflows: %d > %d", trial, sz, avail)
			}
		}
	})
}

func TestPACMSelectVictimsEmptyWhenFits(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() {
		f := NewFreqTracker(sim, 0.7, time.Minute)
		now := sim.Now()
		entries := []*Entry{entryFor("http://a.example/1", "a", 1<<10, 1, time.Hour, time.Millisecond, now)}
		incoming := entryFor("http://a.example/2", "a", 1<<10, 1, time.Hour, time.Millisecond, now)
		victims := NewPACM().SelectVictims(now, entries, incoming, 10<<10, f)
		if len(victims) != 0 {
			t.Errorf("victims = %d, want 0 when everything fits", len(victims))
		}
	})
}
