package cachepolicy

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"apecache/internal/vclock"
)

// This file keeps the map-based PACM selection that the dense pass in
// pacm.go replaced, verbatim apart from names, as the reference the
// differential test below holds the production selection to: same victim
// pointers in the same order, same fairness-drop set. It also keeps the
// exact capacity-only knapsack DP, the oracle the greedy's utility is
// measured against.

// referencePACM carries the fields the reference selection reads.
type referencePACM struct {
	Theta          float64
	recordFairness bool
	fairnessDrops  map[*Entry]struct{}
}

type refRateCache struct {
	freq  *FreqTracker
	rates map[string]float64
}

func newRefRateCache(freq *FreqTracker) *refRateCache {
	return &refRateCache{freq: freq, rates: make(map[string]float64, 8)}
}

func (rc *refRateCache) rate(app string) float64 {
	if r, ok := rc.rates[app]; ok {
		return r
	}
	r := rc.freq.Rate(app)
	rc.rates[app] = r
	return r
}

func (rc *refRateCache) utility(e *Entry, now time.Time) float64 {
	return utilityAtRate(e, now, rc.rate(e.Object.App))
}

// referenceSelectVictims is the former PACM.SelectVictims.
func referenceSelectVictims(p *referencePACM, now time.Time, entries []*Entry, incoming *Entry, capacity int64, freq *FreqTracker) []*Entry {
	avail := capacity
	if incoming != nil {
		avail -= incoming.Size()
	}
	if p.recordFairness {
		p.fairnessDrops = nil // per-pass state; read back by the store
	}
	keep := p.greedyKeepSet(entries, avail, now, freq)
	keep = p.enforceFairness(keep, incoming, now, freq)

	kept := make(map[*Entry]struct{}, len(keep))
	for _, e := range keep {
		kept[e] = struct{}{}
	}
	victims := make([]*Entry, 0, len(entries)-len(keep))
	for _, e := range entries {
		if _, ok := kept[e]; !ok {
			victims = append(victims, e)
		}
	}
	return victims
}

type refScored struct {
	e       *Entry
	density float64
}

type refDensityHeap []refScored

func (h refDensityHeap) Len() int { return len(h) }
func (h refDensityHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.density != b.density {
		return a.density < b.density
	}
	if a.e.seq != b.e.seq {
		return a.e.seq > b.e.seq // later insertions evict first on ties
	}
	return a.e.Object.URL > b.e.Object.URL
}
func (h refDensityHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refDensityHeap) Push(x any)   { *h = append(*h, x.(refScored)) }
func (h *refDensityHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

func (p *referencePACM) greedyKeepSet(entries []*Entry, avail int64, now time.Time, freq *FreqTracker) []*Entry {
	rc := newRefRateCache(freq)
	h := make(refDensityHeap, 0, len(entries))
	var total int64
	for _, e := range entries {
		u := rc.utility(e, now)
		size := e.Size()
		if size <= 0 {
			size = 1
		}
		h = append(h, refScored{e: e, density: u / float64(size)})
		total += e.Size()
	}
	heap.Init(&h)
	var tail []refScored // ascending density: tail[0] is the worst entry
	for total > avail && h.Len() > 0 {
		it := heap.Pop(&h).(refScored)
		tail = append(tail, it)
		total -= it.e.Size()
	}
	keep := make([]*Entry, 0, len(h)+len(tail))
	for _, it := range h {
		keep = append(keep, it.e)
	}
	used := total
	for i := len(tail) - 1; i >= 0; i-- { // descending density
		e := tail[i].e
		if used+e.Size() <= avail {
			keep = append(keep, e)
			used += e.Size()
		}
	}
	return keep
}

func (p *referencePACM) enforceFairness(keep []*Entry, incoming *Entry, now time.Time, freq *FreqTracker) []*Entry {
	theta := p.Theta
	if theta <= 0 {
		theta = DefaultFairnessThreshold
	}
	rc := newRefRateCache(freq)
	for len(keep) > 0 {
		eff := referenceStorageEfficiency(keep, incoming, rc)
		if len(eff) < 2 || referenceGini(eff) <= theta {
			return keep
		}
		victimIdx := -1
		var victimUtil float64
		worstApp := refWorstEfficiencyApp(eff, keep)
		for i, e := range keep {
			if e.Object.App != worstApp {
				continue
			}
			u := rc.utility(e, now)
			if victimIdx < 0 || u < victimUtil ||
				(u == victimUtil && refEntryBefore(e, keep[victimIdx])) {
				victimIdx = i
				victimUtil = u
			}
		}
		if victimIdx < 0 {
			return keep // dominant app is the incoming's; nothing to drop
		}
		if p.recordFairness {
			if p.fairnessDrops == nil {
				p.fairnessDrops = make(map[*Entry]struct{}, 4)
			}
			p.fairnessDrops[keep[victimIdx]] = struct{}{}
		}
		keep = append(keep[:victimIdx], keep[victimIdx+1:]...)
	}
	return keep
}

func refEntryBefore(a, b *Entry) bool {
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return a.Object.URL < b.Object.URL
}

func referenceStorageEfficiency(keep []*Entry, incoming *Entry, rc *refRateCache) map[string]float64 {
	bytes := make(map[string]int64)
	for _, e := range keep {
		bytes[e.Object.App] += e.Size()
	}
	if incoming != nil {
		bytes[incoming.Object.App] += incoming.Size()
	}
	eff := make(map[string]float64, len(bytes))
	for app, b := range bytes {
		r := rc.rate(app)
		if r < MinRate {
			r = MinRate
		}
		eff[app] = float64(b) / r
	}
	return eff
}

func refWorstEfficiencyApp(eff map[string]float64, keep []*Entry) string {
	present := make(map[string]bool, len(keep))
	for _, e := range keep {
		present[e.Object.App] = true
	}
	worst, worstVal := "", math.Inf(-1)
	for app, v := range eff {
		if !present[app] {
			continue
		}
		if v > worstVal || (v == worstVal && app < worst) {
			worst, worstVal = app, v
		}
	}
	return worst
}

func referenceGini(values map[string]float64) float64 {
	if len(values) == 0 {
		return 0
	}
	vals := make([]float64, 0, len(values))
	for _, v := range values {
		vals = append(vals, v)
	}
	sort.Float64s(vals)
	var sum float64
	for _, v := range vals {
		sum += v
	}
	if sum <= 0 {
		return 0
	}
	var diff float64
	for _, x := range vals {
		for _, y := range vals {
			diff += math.Abs(x - y)
		}
	}
	return diff / (2 * float64(len(vals)) * sum)
}

// dpUnit is the size granularity of the DP table: sizes round up to whole
// KiB, so the keep-set never overfits.
const dpUnit = 1024

// solveKeepSetDP returns the keep-set of maximum total utility whose
// rounded-up sizes fit in avail bytes: the capacity dimension of the PACM
// knapsack, solved exactly. It is quadratic in entry count × capacity
// units, so it serves only as the greedy's oracle.
func solveKeepSetDP(entries []*Entry, avail int64, now time.Time, freq *FreqTracker) []*Entry {
	if avail <= 0 || len(entries) == 0 {
		return nil
	}
	capUnits := int(avail / dpUnit)
	if capUnits <= 0 {
		return nil
	}

	n := len(entries)
	sizes := make([]int, n)
	utils := make([]float64, n)
	for i, e := range entries {
		sizes[i] = int((e.Size() + dpUnit - 1) / dpUnit) // round up: never overfit
		if sizes[i] == 0 {
			sizes[i] = 1
		}
		utils[i] = Utility(e, now, freq)
	}

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

	var keep []*Entry
	w := capUnits
	for i := n - 1; i >= 0; i-- {
		if taken[i*words+(w>>6)]&(1<<(uint(w)&63)) != 0 {
			keep = append(keep, entries[i])
			w -= sizes[i]
		}
	}
	return keep
}

// differentialCase draws one random selection problem: 1–9 apps (some
// never requested, so their rate is floored), an incoming object whose app
// may own no resident entry, expired entries, sizes/latencies/TTLs/seqs
// from small sets so densities and seqs collide and the URL tie-break
// decides, and a capacity anywhere from "everything fits" to "evict
// nearly all".
func differentialCase(rng *rand.Rand, sim *vclock.Sim, trial int) (entries []*Entry, incoming *Entry, capacity int64, freq *FreqTracker) {
	freq = NewFreqTracker(sim, DefaultAlpha, time.Minute)
	nApps := 1 + rng.Intn(9)
	apps := make([]string, nApps)
	for a := range apps {
		apps[a] = fmt.Sprintf("app%d", a)
	}
	for window := range 1 + rng.Intn(2) {
		if window > 0 {
			sim.Sleep(time.Minute) // roll: rates become EWMAs
		}
		for _, app := range apps {
			if rng.Intn(4) == 0 {
				continue // zero rate this window
			}
			for range rng.Intn(20) {
				freq.Record(app)
			}
		}
	}
	now := sim.Now()
	n := 1 + rng.Intn(48)
	if rng.Intn(10) == 0 {
		n += rng.Intn(300) // occasionally a few hundred entries
	}
	entries = make([]*Entry, n)
	var total int64
	for i := range entries {
		app := apps[rng.Intn(nApps)]
		size := []int{0, 512, 1 << 10, 2 << 10, 4 << 10, 7 << 10}[rng.Intn(6)]
		if rng.Intn(5) == 0 {
			size = rng.Intn(16 << 10)
		}
		ttl := time.Duration(rng.Intn(4)) * 10 * time.Minute // 0: expired, zero utility
		e := &Entry{
			Object:       testObj(fmt.Sprintf("http://%s.example/t%d/%d", app, trial, i), app, size, 1+rng.Intn(2), ttl),
			Data:         make([]byte, size),
			Expiry:       now.Add(ttl),
			FetchLatency: time.Duration(rng.Intn(3)) * 20 * time.Millisecond,
			seq:          uint64(rng.Intn(1 + n/3)), // repeats: URL breaks the tie
		}
		entries[i] = e
		total += int64(size)
	}
	if rng.Intn(6) != 0 {
		app := apps[rng.Intn(nApps)]
		if rng.Intn(3) == 0 {
			app = "newcomer" // owns no resident entry
			if rng.Intn(2) == 0 {
				freq.Record(app)
			}
		}
		size := 1 + rng.Intn(8<<10)
		incoming = &Entry{
			Object:       testObj(fmt.Sprintf("http://%s.example/t%d/in", app, trial), app, size, 1+rng.Intn(2), time.Hour),
			Data:         make([]byte, size),
			Expiry:       now.Add(time.Hour),
			FetchLatency: 30 * time.Millisecond,
		}
	}
	if rng.Intn(3) != 0 {
		// Number the apps as a store would, leaving an entry unnumbered
		// now and then (built outside a store).
		ids := map[string]uint32{}
		for _, e := range append(entries, incoming) {
			if e == nil || rng.Intn(10) == 0 {
				continue
			}
			if ids[e.Object.App] == 0 {
				ids[e.Object.App] = uint32(len(ids) + 1)
			}
			e.appID = ids[e.Object.App]
		}
	}
	capacity = int64(float64(total) * (0.02 + 1.2*rng.Float64()))
	if incoming != nil && capacity < incoming.Size() {
		capacity = incoming.Size()
	}
	return entries, incoming, capacity, freq
}

// TestPACMSelectionMatchesReference holds the dense selection to the
// map-based reference on 4 000 random problems, with fairness recording
// on, through one PACM so its scratch is reused across problems of every
// size.
func TestPACMSelectionMatchesReference(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() {
		rng := rand.New(rand.NewSource(31))
		p := &PACM{recordFairness: true}
		thetas := []float64{0, 0.05, 0.15, DefaultFairnessThreshold, 0.7, 1}
		var evicting, repaired int
		for trial := range 4000 {
			entries, incoming, capacity, freq := differentialCase(rng, sim, trial)
			p.Theta = thetas[rng.Intn(len(thetas))]
			ref := &referencePACM{Theta: p.Theta, recordFairness: true}
			now := sim.Now()

			want := referenceSelectVictims(ref, now, entries, incoming, capacity, freq)
			got := p.SelectVictims(now, entries, incoming, capacity, freq)
			if len(got) != len(want) {
				t.Fatalf("trial %d (θ=%v, %d entries): %d victims, reference %d", trial, p.Theta, len(entries), len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d (θ=%v): victim %d is %s, reference %s", trial, p.Theta, i, got[i].Object.URL, want[i].Object.URL)
				}
			}
			drops := 0
			for _, e := range entries {
				_, refDrop := ref.fairnessDrops[e]
				if p.fairnessVictim(e) != refDrop {
					t.Fatalf("trial %d (θ=%v): fairness drop of %s = %v, reference %v", trial, p.Theta, e.Object.URL, !refDrop, refDrop)
				}
				if refDrop {
					drops++
				}
			}
			if drops != len(ref.fairnessDrops) {
				t.Fatalf("trial %d: reference dropped %d entries outside the resident set", trial, len(ref.fairnessDrops)-drops)
			}
			if len(want) > 0 {
				evicting++
			}
			if drops > 0 {
				repaired++
			}
		}
		// The generator must keep exercising both stages.
		t.Logf("%d trials evicted, %d ran the fairness repair", evicting, repaired)
		if evicting < 2000 || repaired < 400 {
			t.Errorf("coverage: %d trials evicted, %d ran the fairness repair", evicting, repaired)
		}
	})
}
