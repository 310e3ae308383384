package cachepolicy

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"apecache/internal/dnswire"
	"apecache/internal/vclock"
)

// referenceFlag is the three-way classification as it was written before
// flag batches took the clock and the resident entry as arguments: every
// lookup by URL, the clock read where needed. The reference scans below
// use it so they share no code with the store's lookup path.
func referenceFlag(s *Store, url string) dnswire.CacheFlag {
	if _, blocked := s.blocklist[url]; blocked {
		return dnswire.FlagCacheMiss
	}
	if until, ok := s.negative[url]; ok && s.clock.Now().Before(until) {
		return dnswire.FlagCacheMiss
	}
	if e, ok := s.entries[url]; ok && e.Fresh(s.clock.Now()) {
		if e.Stale {
			if e.StaleServed {
				return dnswire.FlagDelegation
			}
			return dnswire.FlagStale
		}
		return dnswire.FlagCacheHit
	}
	return dnswire.FlagDelegation
}

// scratchKnown recomputes KnownHashesForDomain the way the pre-index store
// did: a full scan over every hash ever seen. The incremental index must
// agree with it after any mutation sequence.
func scratchKnown(s *Store, domain string) map[uint64]dnswire.CacheFlag {
	domain = dnswire.CanonicalName(domain)
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[uint64]dnswire.CacheFlag)
	for h, url := range s.byHash {
		if dnswire.URLDomain(url) == domain {
			out[h] = referenceFlag(s, url)
		}
	}
	return out
}

// referenceBatch is the map-merge AP.HandleDNS performed before
// AppendDomainFlags existed: a flag per requested hash through the global
// hash map (none when the request RR does not parse), overwritten by the
// domain's whole known set, and a second pass over the merged map for the
// dummy-IP decision.
func referenceBatch(s *Store, domain string, reqRR dnswire.RR) (flags map[uint64]dnswire.CacheFlag, anyMiss bool) {
	known := scratchKnown(s, domain)
	requested, reqErr := dnswire.ParseCacheRR(reqRR)
	flags = make(map[uint64]dnswire.CacheFlag, len(requested)+len(known))
	if reqErr == nil {
		s.mu.RLock()
		for _, e := range requested {
			flags[e.Hash] = dnswire.FlagDelegation
			if url, ok := s.byHash[e.Hash]; ok {
				flags[e.Hash] = referenceFlag(s, url)
			}
		}
		s.mu.RUnlock()
	}
	for h, f := range known {
		flags[h] = f
	}
	for _, f := range flags {
		if f == dnswire.FlagCacheMiss {
			anyMiss = true
		}
	}
	return flags, anyMiss
}

// randomRequestRR builds a DNS-Cache request RR mixing hashes of the given
// URLs (the asked domain's and other domains', seen by the store or not),
// hashes no URL has, and repeats; one in eight is cut short so that it does
// not parse.
func randomRequestRR(rng *rand.Rand, domain string, urls []string) dnswire.RR {
	var req []dnswire.CacheEntry
	for range rng.Intn(12) {
		switch rng.Intn(4) {
		case 0:
			req = append(req, dnswire.CacheEntry{Hash: rng.Uint64()})
		case 1:
			if len(req) > 0 {
				req = append(req, req[rng.Intn(len(req))])
				break
			}
			fallthrough
		default:
			req = append(req, dnswire.CacheEntry{Hash: dnswire.HashURL(urls[rng.Intn(len(urls))])})
		}
	}
	rr := dnswire.NewCacheRR(domain, dnswire.ClassCacheRequest, req)
	if len(rr.Data) > 0 && rng.Intn(8) == 0 {
		rr.Data = rr.Data[:len(rr.Data)-1]
	}
	return rr
}

// checkFlagBatch asserts that AppendDomainFlags, called the way HandleDNS
// calls it, appends exactly the reference merge — the same set, each hash
// once, behind whatever dst already held — and takes the same dummy-IP
// decision.
func checkFlagBatch(t *testing.T, s *Store, domain string, reqRR dnswire.RR, step int, op string) {
	t.Helper()
	want, wantMiss := referenceBatch(s, domain, reqRR)
	requested, _ := dnswire.ParseCacheRR(reqRR)
	held := dnswire.CacheEntry{Hash: 1, Flag: dnswire.FlagCacheMiss}
	batch, gotMiss := s.AppendDomainFlags([]dnswire.CacheEntry{held}, domain, requested)
	if len(batch) == 0 || batch[0] != held {
		t.Fatalf("step %d (%s) domain %s: dst prefix not preserved", step, op, domain)
	}
	got := make(map[uint64]dnswire.CacheFlag, len(batch))
	for _, ce := range batch[1:] {
		if _, dup := got[ce.Hash]; dup {
			t.Fatalf("step %d (%s) domain %s: hash %d appended twice", step, op, domain, ce.Hash)
		}
		got[ce.Hash] = ce.Flag
	}
	if len(got) != len(want) {
		t.Fatalf("step %d (%s) domain %s: batch has %d entries, map-merge %d", step, op, domain, len(got), len(want))
	}
	for h, f := range want {
		if gf, ok := got[h]; !ok || gf != f {
			t.Fatalf("step %d (%s) domain %s hash %d: batch flag %v (present %v), map-merge %v", step, op, domain, h, gf, ok, f)
		}
	}
	if gotMiss != wantMiss {
		t.Fatalf("step %d (%s) domain %s: anyMiss=%v, map-merge %v", step, op, domain, gotMiss, wantMiss)
	}
}

func checkIndexAgreement(t *testing.T, s *Store, domains []string, step int, op string) {
	t.Helper()
	for _, d := range domains {
		want := scratchKnown(s, d)
		got := make(map[uint64]dnswire.CacheFlag, len(want))
		for _, ce := range s.KnownHashesForDomain(d) {
			got[ce.Hash] = ce.Flag
		}
		if len(got) != len(want) {
			t.Fatalf("step %d (%s) domain %s: index knows %d hashes, scan %d", step, op, d, len(got), len(want))
		}
		for h, f := range want {
			if got[h] != f {
				t.Fatalf("step %d (%s) domain %s hash %d: index flag %v, scan flag %v", step, op, d, h, got[h], f)
			}
		}
	}
}

// driveRandomStore runs eight seeded random mutation sequences over a
// small store — puts, refreshes, capacity evictions, TTL expiry (with and
// without sweeps), coherence purges in every flavour, stale serves,
// revalidations, deletions — and calls check after every operation. One
// put in six is over the object limit and block-lists its URL, resident or
// not.
func driveRandomStore(t *testing.T, domains []string, check func(s *Store, urls []string, step int, op string)) {
	t.Helper()
	var urls []string
	for _, d := range domains {
		for p := 0; p < 4; p++ {
			urls = append(urls, fmt.Sprintf("http://%s/obj/%d", d, p))
		}
	}

	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sim := vclock.NewSim(time.Time{})
		sim.Run("main", func() {
			s := NewStore(sim, 32<<10, 8<<10, NewPACM(), nil)
			s.SetNegativeTTL(45 * time.Second)
			version := make(map[string]int64)

			for step := 0; step < 300; step++ {
				url := urls[rng.Intn(len(urls))]
				op := ""
				switch rng.Intn(10) {
				case 0, 1, 2: // put (insert or refresh)
					op = "put"
					version[url]++
					size := 512 + rng.Intn(3<<10)
					if rng.Intn(6) == 0 {
						op, size = "put-oversized", 9<<10
					}
					obj := testObj(url, dnswire.URLDomain(url), size, 1+rng.Intn(3),
						time.Duration(30+rng.Intn(240))*time.Second)
					obj.Version = version[url]
					_ = s.Put(obj, make([]byte, obj.Size), time.Duration(5+rng.Intn(40))*time.Millisecond)
				case 3: // advance virtual time past some TTLs
					op = "sleep"
					sim.Sleep(time.Duration(rng.Intn(90)) * time.Second)
				case 4: // purge: version bump, randomly gone / stale-while-revalidate
					op = "purge"
					version[url]++
					s.Purge(url, version[url], rng.Intn(4) == 0, rng.Intn(2) == 0)
				case 5:
					op = "getstale"
					_, _ = s.GetStale(url)
				case 6:
					op = "revalidated"
					s.Revalidated(url, version[url])
				case 7:
					op = "markgone"
					s.MarkGone(url)
				case 8:
					op = "sweep"
					s.SweepExpired()
				case 9:
					op = "get"
					_, _ = s.Get(url)
				}
				check(s, urls, step, op)
			}
		})
	}
}

// TestDomainIndexAgreesWithScratchScan asserts, after every operation of
// the random drive (block-listing included), that the incrementally
// maintained per-domain index gives exactly the answers a from-scratch
// scan over all known hashes gives.
func TestDomainIndexAgreesWithScratchScan(t *testing.T) {
	domains := []string{"a.example", "b.example", "c.example"}
	driveRandomStore(t, domains, func(s *Store, _ []string, step int, op string) {
		checkIndexAgreement(t, s, domains, step, op)
	})
}

// TestFlagBatchEqualsMapMerge asserts, after every operation of the random
// drive (block-listing included), that the flag batch of a random
// DNS-Cache request — for each driven domain and for one the store never
// hears of, asked in non-canonical spelling — equals the map-merge
// HandleDNS used to build, dummy-IP decision included.
func TestFlagBatchEqualsMapMerge(t *testing.T) {
	domains := []string{"a.example", "b.example", "c.example"}
	reqRng := rand.New(rand.NewSource(99))
	driveRandomStore(t, domains, func(s *Store, urls []string, step int, op string) {
		askable := append([]string{"http://d.example/obj/0", "http://d.example/obj/1"}, urls...)
		for _, d := range append([]string{"D.Example."}, domains...) {
			checkFlagBatch(t, s, d, randomRequestRR(reqRng, d, askable), step, op)
		}
	})
}

// TestStoreConcurrentAccess hammers every read-path method concurrently
// with puts, sweeps, purges and revalidations under the real clock. Run
// with -race this is the store's data-race certification; the final
// index-vs-scan agreement check guards the invariants too.
func TestStoreConcurrentAccess(t *testing.T) {
	s := NewStore(&vclock.Real{}, 64<<10, 0, NewPACM(), nil)
	domains := []string{"x.example", "y.example"}
	var urls []string
	for _, d := range domains {
		for p := 0; p < 8; p++ {
			urls = append(urls, fmt.Sprintf("http://%s/obj/%d", d, p))
		}
	}

	const (
		goroutines = 8
		iters      = 400
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g + 1)))
			for i := 0; i < iters; i++ {
				url := urls[rng.Intn(len(urls))]
				switch rng.Intn(11) {
				case 0:
					obj := testObj(url, dnswire.URLDomain(url), 512+rng.Intn(2<<10), 1+rng.Intn(3), time.Minute)
					obj.Version = int64(i)
					_ = s.Put(obj, make([]byte, obj.Size), 10*time.Millisecond)
				case 1:
					s.Purge(url, int64(i), false, true)
				case 2:
					s.Purge(url, int64(i), true, false)
				case 3:
					_, _ = s.GetStale(url)
				case 4:
					s.Revalidated(url, int64(i))
				case 5:
					s.SweepExpired()
				case 6:
					if e, ok := s.Get(url); ok && len(e.Data) == 0 {
						t.Error("Get returned an entry with no payload")
					}
				case 7:
					_ = s.Flag(url)
				case 8:
					_ = s.FlagByHash(dnswire.HashURL(url))
				case 9:
					d := domains[rng.Intn(len(domains))]
					requested := append(s.KnownHashesForDomain(d),
						dnswire.CacheEntry{Hash: dnswire.HashURL(url)}, dnswire.CacheEntry{Hash: rng.Uint64()})
					_, _ = s.AppendDomainFlags(nil, d, requested)
				case 10:
					s.RecordRequest(dnswire.URLDomain(url))
					_ = s.Freq().Rate(dnswire.URLDomain(url))
				}
			}
		}(g)
	}
	wg.Wait()

	checkIndexAgreement(t, s, domains, -1, "final")
	if s.Used() < 0 || s.Used() > s.Capacity() {
		t.Errorf("capacity invariant violated: used=%d capacity=%d", s.Used(), s.Capacity())
	}
}

// sortedGreedyKeepSet is the pre-heap reference implementation: full sort
// by descending density (deterministic tie-breaks matching the heap's),
// then the fits-else-skip fill.
func sortedGreedyKeepSet(entries []*Entry, avail int64, now time.Time, freq *FreqTracker) []*Entry {
	type ranked struct {
		e       *Entry
		density float64
	}
	rs := make([]ranked, 0, len(entries))
	for _, e := range entries {
		size := e.Size()
		if size <= 0 {
			size = 1
		}
		rs = append(rs, ranked{e: e, density: Utility(e, now, freq) / float64(size)})
	}
	sort.Slice(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		if a.density != b.density {
			return a.density > b.density
		}
		if a.e.seq != b.e.seq {
			return a.e.seq < b.e.seq
		}
		return a.e.Object.URL < b.e.Object.URL
	})
	var keep []*Entry
	var used int64
	for _, r := range rs {
		if used+r.e.Size() <= avail {
			keep = append(keep, r.e)
			used += r.e.Size()
		}
	}
	return keep
}

// TestPACMHeapSelectionMatchesSortReference asserts the heapify-and-pop
// keep-set equals the full-sort keep-set on random instances, including
// duplicate densities and zero-utility (expired) entries.
func TestPACMHeapSelectionMatchesSortReference(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sim := vclock.NewSim(time.Time{})
		sim.Run("main", func() {
			now := sim.Now()
			freq := NewFreqTracker(sim, DefaultAlpha, DefaultFreqWindow)
			n := 1 + rng.Intn(60)
			entries := make([]*Entry, n)
			for i := range entries {
				app := fmt.Sprintf("app%d", rng.Intn(4))
				size := 256 << rng.Intn(4) // duplicate sizes → duplicate densities
				ttl := time.Duration(rng.Intn(5)) * time.Minute
				e := &Entry{
					Object:       testObj(fmt.Sprintf("http://%s.example/%d", app, i), app, size, 1+rng.Intn(3), ttl),
					Data:         make([]byte, size),
					Expiry:       now.Add(ttl), // ttl may be 0 → expired, zero utility
					FetchLatency: time.Duration(1+rng.Intn(3)) * 10 * time.Millisecond,
					seq:          uint64(i + 1),
				}
				entries[i] = e
				freq.Record(app)
			}
			avail := int64(rng.Intn(48 << 10))

			got := greedyKeepSet(entries, avail, now, freq)
			want := sortedGreedyKeepSet(entries, avail, now, freq)

			gotSet := make(map[*Entry]bool, len(got))
			for _, e := range got {
				gotSet[e] = true
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d: heap keep-set size %d, sort reference %d", seed, len(got), len(want))
			}
			for _, e := range want {
				if !gotSet[e] {
					t.Fatalf("seed %d: sort reference keeps %s, heap does not", seed, e.Object.URL)
				}
			}
		})
	}
}
