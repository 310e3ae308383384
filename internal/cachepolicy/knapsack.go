package cachepolicy

import (
	"time"
)

// dpMaxEntries bounds exact-DP use: beyond this, PACM's greedy is used
// regardless of the UseDP flag (the DP is quadratic and meant for small
// caches, tests and the solver ablation bench).
const dpMaxEntries = 256

// dpUnit is the size granularity of the DP table (1 KiB buckets keep the
// table small; object sizes in the evaluation are 1–500 KB).
const dpUnit = 1024

// solveKeepDP solves the capacity dimension of the PACM knapsack exactly:
// it marks in keep the subset of entries with maximum total utility
// (utils[i] is entries[i]'s) whose rounded-up sizes fit in avail bytes.
// The fairness dimension is enforced afterwards by the same repair pass as
// the greedy path.
func solveKeepDP(entries []*Entry, utils []float64, avail int64, keep []bool) {
	capUnits := int(avail / dpUnit)
	if capUnits <= 0 || len(entries) == 0 {
		return
	}

	n := len(entries)
	sizes := make([]int, n)
	for i, e := range entries {
		sizes[i] = int((e.Size() + dpUnit - 1) / dpUnit) // round up: never overfit
		if sizes[i] == 0 {
			sizes[i] = 1
		}
	}

	// best[w] = max utility using capacity w; taken is a per-item bitset
	// over capacity units (bit w of row i: item i is taken at width w) —
	// 1 bit per cell instead of the 1 byte a [][]bool row costs, an ~8×
	// cut in reconstruction-table memory at dpMaxEntries.
	best := make([]float64, capUnits+1)
	words := (capUnits + 1 + 63) / 64
	taken := make([]uint64, n*words)
	for i := range n {
		row := taken[i*words : (i+1)*words]
		for w := capUnits; w >= sizes[i]; w-- {
			cand := best[w-sizes[i]] + utils[i]
			if cand > best[w] {
				best[w] = cand
				row[w>>6] |= 1 << (uint(w) & 63)
			}
		}
	}

	// Reconstruct: walk items in reverse of the processing order.
	w := capUnits
	for i := n - 1; i >= 0; i-- {
		if taken[i*words+(w>>6)]&(1<<(uint(w)&63)) != 0 {
			keep[i] = true
			w -= sizes[i]
		}
	}
}

// KeepSetUtility sums the utilities of a keep-set (test helper for
// comparing greedy vs exact solutions).
func KeepSetUtility(keep []*Entry, now time.Time, freq *FreqTracker) float64 {
	var sum float64
	for _, e := range keep {
		sum += Utility(e, now, freq)
	}
	return sum
}
