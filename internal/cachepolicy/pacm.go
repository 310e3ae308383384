package cachepolicy

import (
	"cmp"
	"math"
	"slices"
	"strings"
	"time"
)

// PACM is the paper's Priority-Aware Cache Management policy (§IV-C).
//
// Each resident object d has utility
//
//	U_d = R(A_d) × e_d × l_d × p_d
//
// (app request frequency × remaining validity × latency saved per hit ×
// developer priority). PACM keeps the subset of objects maximizing total
// utility subject to (1) the capacity left after admitting the incoming
// object and (2) a fairness bound F(A) ≤ θ on the Gini coefficient of
// per-app storage efficiency C_a = Σ s_d / R(a).
//
// The paper solves this two-dimensional knapsack "utilizing dynamic
// programming". A Gini constraint is not separable, so an exact DP over
// it does not exist; this implementation evicts in ascending
// utility-density order (utility per byte — the classic knapsack greedy,
// optimal as item sizes shrink relative to capacity) and, whenever the
// fairness bound is violated, restricts eviction to the apps that consume
// storage least efficiently. An exact capacity-only DP, kept in the tests
// as an oracle, verifies that the greedy keep-set stays close to optimal.
//
// Selection is incremental in the victim count, not the resident count:
// instead of fully sorting every resident entry per admission (O(n log n)
// always), the densities are heapified (O(n)) and only the eviction
// candidates — typically a handful — are popped (O(log n) each). Entries
// left on the heap are provably all kept by the greedy fill (see
// DESIGN.md for the equivalence argument), so the full sort is recovered
// exactly without ever paying for it. One pass is a dense walk over
// scratch memory the PACM reuses: one Rate call per app, and index-aligned
// utility, app and keep arrays instead of maps keyed by app or entry.
type PACM struct {
	// Theta is the fairness threshold θ (default 0.4).
	Theta float64

	// recordFairness makes each SelectVictims pass remember which victims
	// the fairness repair dropped (as opposed to the capacity greedy), so
	// the decision ledger can attribute them as Gini rejections. The store
	// sets it when a ledger is attached.
	recordFairness bool
	fairnessDrops  []*Entry

	// sel is the scratch a pass runs in. Like fairnessDrops it is per-pass
	// state, which is safe because the store runs SelectVictims under its
	// write lock: two passes over one PACM never overlap.
	sel selection
}

// NewPACM returns a PACM policy with the paper's default θ.
func NewPACM() *PACM { return &PACM{Theta: DefaultFairnessThreshold} }

var _ Policy = (*PACM)(nil)

// Name implements Policy.
func (p *PACM) Name() string { return "PACM" }

// Utility computes U_d at the given instant. Frequencies are per-window
// rates; e_d is measured in minutes, l_d in milliseconds.
func Utility(e *Entry, now time.Time, freq *FreqTracker) float64 {
	return utilityAtRate(e, now, freq.Rate(e.Object.App))
}

// utilityAtRate is Utility with the app rate already resolved, letting one
// selection pass share a single Rate lookup per app.
func utilityAtRate(e *Entry, now time.Time, rate float64) float64 {
	remaining := e.Expiry.Sub(now).Minutes()
	if remaining <= 0 {
		return 0
	}
	if rate < MinRate {
		rate = MinRate // floor: ordering stays total, idle apps stay comparable
	}
	latencyMS := float64(e.FetchLatency) / float64(time.Millisecond)
	if latencyMS <= 0 {
		latencyMS = 1
	}
	return rate * remaining * latencyMS * float64(e.Object.Priority)
}

// SelectVictims implements Policy. Victims come back in entries order.
func (p *PACM) SelectVictims(now time.Time, entries []*Entry, incoming *Entry, capacity int64, freq *FreqTracker) []*Entry {
	avail := capacity
	if incoming != nil {
		avail -= incoming.Size()
	}
	clear(p.fairnessDrops) // drop last pass's references before reuse
	p.fairnessDrops = p.fairnessDrops[:0]
	if len(entries) == 0 {
		return nil
	}
	s := &p.sel
	s.reset(len(entries))
	for i, e := range entries {
		a := s.appIndex(e, freq)
		s.app[i] = a
		s.util[i] = utilityAtRate(e, now, s.apps[a].rate)
	}
	s.greedy(entries, avail)
	kept := p.enforceFairness(entries, incoming, freq)

	victims := make([]*Entry, 0, len(entries)-kept)
	for i, e := range entries {
		if !s.keep[i] {
			victims = append(victims, e)
		}
	}
	return victims
}

// selection is the scratch of one pass, index-aligned with its entries:
// entry i's utility, app slot and fate. Every slice is reused across
// passes, so a pass allocates only the victim slice it returns.
type selection struct {
	util  []float64
	app   []int32
	keep  []bool
	apps  []appTally
	heap  densityHeap
	tail  []int32
	order []int32   // kept entries grouped by app (fairness victim order)
	vals  []float64 // per-app efficiencies, the Gini input
	// grouped reports whether order has been built this pass.
	grouped bool
	// slotOf maps a store app id to its slot in apps plus one (0: not
	// seen this pass); ids lists the ids set, so reset clears just those.
	slotOf []int32
	ids    []uint32
}

// appTally is one app's standing within a pass.
type appTally struct {
	name string
	rate float64 // R(a), read once per pass
	// bytes and kept cover the kept entries; bytes also counts the
	// incoming object for its app.
	bytes int64
	kept  int
	// next/end delimit the app's not-yet-dropped kept entries in order;
	// sorted reports whether that group is in victim order yet.
	next, end int
	sorted    bool
}

// efficiency is C_a = bytes(a) / R(a), the rate floored at MinRate.
func (t *appTally) efficiency() float64 {
	r := t.rate
	if r < MinRate {
		r = MinRate
	}
	return float64(t.bytes) / r
}

func (s *selection) reset(n int) {
	s.util = resize(s.util, n)
	s.app = resize(s.app, n)
	s.keep = resize(s.keep, n)
	clear(s.keep)
	clear(s.apps) // drop app names of earlier passes
	s.apps = s.apps[:0]
	for _, id := range s.ids {
		s.slotOf[id] = 0
	}
	s.ids = s.ids[:0]
	s.grouped = false
}

// resize returns b with length n, reallocating only when it must grow.
func resize[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// appIndex returns the slot of e's app in the pass, adding it — with the
// pass's one Rate call for the app — on first sight. An entry built by a
// store carries the store's app id, which finds the slot directly once
// the app has been seen; names are compared only on a first sighting and
// for entries built outside a store. A pass sees one store's entries, so
// an id stands for one app within it.
func (s *selection) appIndex(e *Entry, freq *FreqTracker) int32 {
	id := e.appID
	if int(id) < len(s.slotOf) && s.slotOf[id] != 0 {
		return s.slotOf[id] - 1
	}
	app, a := e.Object.App, int32(-1)
	for i := range s.apps {
		if s.apps[i].name == app {
			a = int32(i)
			break
		}
	}
	if a < 0 {
		s.apps = append(s.apps, appTally{name: app, rate: freq.Rate(app)})
		a = int32(len(s.apps) - 1)
	}
	if id != 0 {
		for len(s.slotOf) <= int(id) {
			s.slotOf = append(s.slotOf, 0)
		}
		s.slotOf[id] = a + 1
		s.ids = append(s.ids, id)
	}
	return a
}

// scored is a heap item: entry index and utility density.
type scored struct {
	density float64
	i       int32
}

// densityHeap is a min-heap over utility density with deterministic
// tie-breaks (later insertion first, then larger URL), so selection does
// not depend on map iteration order.
type densityHeap struct {
	items   []scored
	entries []*Entry
}

func (h *densityHeap) less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.density != b.density {
		return a.density < b.density
	}
	ea, eb := h.entries[a.i], h.entries[b.i]
	if ea.seq != eb.seq {
		return ea.seq > eb.seq // later insertions evict first on ties
	}
	return ea.Object.URL > eb.Object.URL
}

func (h *densityHeap) down(i int) {
	n := len(h.items)
	for {
		j := 2*i + 1
		if j >= n {
			return
		}
		if r := j + 1; r < n && h.less(r, j) {
			j = r
		}
		if !h.less(j, i) {
			return
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		i = j
	}
}

func (h *densityHeap) pop() scored {
	n := len(h.items) - 1
	h.items[0], h.items[n] = h.items[n], h.items[0]
	it := h.items[n]
	h.items = h.items[:n]
	h.down(0)
	return it
}

// greedy marks the keep-set that keeps entries in descending
// utility-density order until the capacity budget is exhausted — without
// sorting. The densities are heapified (O(n)); the lowest-density entries
// are popped (O(log n) each) only until the remaining mass fits in avail.
// Everything still on the heap is kept outright: in the density-descending
// greedy fill those entries form a prefix whose running sum never exceeds
// the remaining mass, which fits. The popped tail is then replayed in
// descending order (reverse pop order) through the same fits-else-skip
// rule, reproducing the sorted greedy's keep-set exactly.
func (s *selection) greedy(entries []*Entry, avail int64) {
	h := &s.heap
	h.items, h.entries = h.items[:0], entries
	var total int64
	for i, e := range entries {
		size := e.Size()
		total += size
		if size <= 0 {
			size = 1
		}
		h.items = append(h.items, scored{density: s.util[i] / float64(size), i: int32(i)})
	}
	for i := len(h.items)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	tail := s.tail[:0] // ascending density: tail[0] is the worst entry
	for total > avail && len(h.items) > 0 {
		it := h.pop()
		tail = append(tail, it.i)
		total -= entries[it.i].Size()
	}
	for _, it := range h.items {
		s.keep[it.i] = true
	}
	used := total
	for k := len(tail) - 1; k >= 0; k-- { // descending density
		if size := entries[tail[k]].Size(); used+size <= avail {
			s.keep[tail[k]] = true
			used += size
		}
	}
	s.tail, h.entries = tail, nil
}

// enforceFairness drops the lowest-utility kept entries of
// storage-dominant apps until F(A) ≤ θ, and returns how many entries stay
// kept. The incoming object (already admitted by definition) participates
// in the efficiency accounting. Per-app byte sums and kept counts are
// tallied once and updated per drop; each round recomputes only the Gini
// coefficient over the per-app efficiencies.
func (p *PACM) enforceFairness(entries []*Entry, incoming *Entry, freq *FreqTracker) int {
	s := &p.sel
	theta := p.Theta
	if theta <= 0 {
		theta = DefaultFairnessThreshold
	}
	kept := 0
	for i, k := range s.keep {
		if k {
			t := &s.apps[s.app[i]]
			t.bytes += entries[i].Size()
			t.kept++
			kept++
		}
	}
	if kept == 0 {
		return 0
	}
	in := int32(-1)
	if incoming != nil {
		in = s.appIndex(incoming, freq)
		s.apps[in].bytes += incoming.Size()
	}
	for kept > 0 {
		vals := s.vals[:0]
		for a := range s.apps {
			if t := &s.apps[a]; t.kept > 0 || int32(a) == in {
				vals = append(vals, t.efficiency())
			}
		}
		s.vals = vals
		if len(vals) < 2 || gini(vals) <= theta {
			break
		}
		// Drop the lowest-utility entry of the app with the worst (largest)
		// storage efficiency that still has kept entries.
		worst := s.worstApp()
		if worst < 0 {
			break
		}
		i := s.nextVictim(worst, entries)
		s.keep[i] = false
		t := &s.apps[worst]
		t.bytes -= entries[i].Size()
		t.kept--
		kept--
		if p.recordFairness {
			p.fairnessDrops = append(p.fairnessDrops, entries[i])
		}
	}
	return kept
}

// worstApp returns the app with the largest C_a among apps that own at
// least one kept entry (ties broken lexicographically so the repair loop
// is deterministic).
func (s *selection) worstApp() int {
	worst, worstVal := -1, math.Inf(-1)
	for a := range s.apps {
		t := &s.apps[a]
		if t.kept == 0 {
			continue
		}
		if v := t.efficiency(); v > worstVal || (v == worstVal && t.name < s.apps[worst].name) {
			worst, worstVal = a, v
		}
	}
	return worst
}

// nextVictim returns app a's lowest-utility kept entry (ties: earlier
// insertion, then smaller URL) and moves past it. The first call of a pass
// groups the kept entries by app; a group is sorted the first time its
// app is the worst. Only fairness drops remove kept entries, and they take
// each app's in this order, so a group's unvisited part is exactly the
// app's kept entries.
func (s *selection) nextVictim(a int, entries []*Entry) int32 {
	if !s.grouped {
		s.group()
	}
	t := &s.apps[a]
	if !t.sorted {
		slices.SortFunc(s.order[t.next:t.end], func(x, y int32) int {
			if c := cmp.Compare(s.util[x], s.util[y]); c != 0 {
				return c
			}
			ex, ey := entries[x], entries[y]
			if c := cmp.Compare(ex.seq, ey.seq); c != 0 {
				return c
			}
			return strings.Compare(ex.Object.URL, ey.Object.URL)
		})
		t.sorted = true
	}
	i := s.order[t.next]
	t.next++
	return i
}

// group lays the kept entries out in order, grouped by app (a counting
// sort on the app slot).
func (s *selection) group() {
	n := 0
	for a := range s.apps {
		t := &s.apps[a]
		t.next, t.end = n, n
		n += t.kept
	}
	s.order = resize(s.order, n)
	for i, k := range s.keep {
		if k {
			t := &s.apps[s.app[i]]
			s.order[t.end] = int32(i)
			t.end++
		}
	}
	s.grouped = true
}

// fairnessVictim reports whether the last SelectVictims pass dropped e
// in the fairness repair loop. Only meaningful while recordFairness is
// on; the store reads it under its write lock immediately after the
// selection that produced e.
func (p *PACM) fairnessVictim(e *Entry) bool {
	return slices.Contains(p.fairnessDrops, e)
}

// Gini computes the Gini coefficient of the values (Equation 1 of the
// paper): F = ΣΣ|Cx−Cy| / (2·A·ΣCx). Zero means perfectly equal.
func Gini(values map[string]float64) float64 {
	vals := make([]float64, 0, len(values))
	for _, v := range values {
		vals = append(vals, v)
	}
	return gini(vals)
}

// gini is Gini over a slice, which it sorts in place.
func gini(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	// Sum in sorted order: float addition is not associative, and map
	// iteration order must not leak into the result's low bits.
	slices.Sort(vals)
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
