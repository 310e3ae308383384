package cachepolicy

import (
	"fmt"
	"testing"
	"time"

	"apecache/internal/vclock"
)

// benchEntries builds n entries with varied sizes/priorities/TTLs across
// 8 apps, the shape the admission path sees on a loaded AP; like a
// store's entries they carry app ids.
func benchEntries(n int, now time.Time) []*Entry {
	entries := make([]*Entry, n)
	for i := range n {
		size := 1<<10 + (i%17)*512
		entries[i] = entryFor(
			fmt.Sprintf("http://app%d.example/obj/%d", i%8, i),
			fmt.Sprintf("app%d", i%8),
			size, 1+i%3,
			time.Duration(10+i%50)*time.Minute,
			time.Duration(5+i%40)*time.Millisecond,
			now)
		entries[i].Hits = i % 9
		entries[i].appID = uint32(i%8 + 1)
	}
	return entries
}

// BenchmarkSolveKeepSetDP256 times the exact DP, the greedy's test oracle,
// on 256 entries, for comparison with BenchmarkSelectVictims.
func BenchmarkSolveKeepSetDP256(b *testing.B) {
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() {
		f := NewFreqTracker(sim, 0.7, time.Minute)
		now := sim.Now()
		entries := benchEntries(256, now)
		var total int64
		for _, e := range entries {
			total += e.Size()
		}
		avail := total / 2
		b.ResetTimer()
		for range b.N {
			if keep := solveKeepSetDP(entries, avail, now, f); len(keep) == 0 {
				b.Fatal("empty keep-set")
			}
		}
	})
}

// BenchmarkSelectVictims measures the heapified incremental admission path
// on a full store (the per-Put cost that used to be a full sort). 320
// entries is the resident count of the repository benchmark's miss-churn
// workload.
func BenchmarkSelectVictims(b *testing.B) {
	for _, n := range []int{320, 1024} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			sim := vclock.NewSim(time.Time{})
			sim.Run("main", func() {
				f := NewFreqTracker(sim, 0.7, time.Minute)
				now := sim.Now()
				entries := benchEntries(n, now)
				var total int64
				for _, e := range entries {
					total += e.Size()
				}
				incoming := entryFor("http://app0.example/new", "app0", 8<<10, 2, 30*time.Minute, 20*time.Millisecond, now)
				incoming.appID = 1
				p := NewPACM()
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					if v := p.SelectVictims(now, entries, incoming, total, f); len(v) == 0 {
						b.Fatal("expected victims on a full store")
					}
				}
			})
		})
	}
}

func BenchmarkGini(b *testing.B) {
	values := make(map[string]float64, 30)
	for i := range 30 {
		values[fmt.Sprintf("app%d", i)] = float64(i + 1)
	}
	for b.Loop() {
		Gini(values)
	}
}
