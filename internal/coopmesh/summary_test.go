package coopmesh

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"apecache/internal/cachepolicy"
	"apecache/internal/dnswire"
	"apecache/internal/objstore"
	"apecache/internal/transport"
	"apecache/internal/vclock"
)

var testAddr = transport.Addr{Host: "ap0", Port: 8080}

func put(t *testing.T, store *cachepolicy.Store, url string, ttl time.Duration) {
	t.Helper()
	obj := &objstore.Object{URL: url, App: "t", Size: 64, TTL: ttl, Priority: objstore.PriorityLow}
	if err := store.Put(obj, make([]byte, 64), 0); err != nil {
		t.Fatalf("put %s: %v", url, err)
	}
}

// A summary must reflect the store's servable set exactly: every
// resident fresh entry is a Bloom member (zero false negatives against
// ground truth), while expired and purged-stale entries are excluded
// from the counts.
func TestBuildSummaryMatchesStore(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	store := cachepolicy.NewStore(sim, 5<<20, 0, cachepolicy.NewPACM(), nil)
	var fresh []string
	for d := 0; d < 3; d++ {
		for j := 0; j < 4; j++ {
			u := fmt.Sprintf("http://d%d.example/obj%d", d, j)
			put(t, store, u, time.Hour)
			fresh = append(fresh, u)
		}
	}
	// Expired on arrival: TTL 0 means Expiry == now, never servable.
	put(t, store, "http://d0.example/expired", 0)
	// Purged but resident (stale-while-revalidate): not offerable to peers.
	put(t, store, "http://d1.example/staled", time.Hour)
	store.Purge("http://d1.example/staled", 99, false, true)
	fresh = fresh[:0:0]
	for d := 0; d < 3; d++ {
		for j := 0; j < 4; j++ {
			fresh = append(fresh, fmt.Sprintf("http://d%d.example/obj%d", d, j))
		}
	}

	s := BuildSummary("ap0", testAddr, store, 1, 0)
	if s.Entries != len(fresh) {
		t.Fatalf("Entries = %d, want %d (expired and stale excluded)", s.Entries, len(fresh))
	}
	for _, u := range fresh {
		if !s.Bloom.MayContain(dnswire.HashURL(u)) {
			t.Errorf("summary misses resident fresh %s", u)
		}
	}
	if !sort.SliceIsSorted(s.Domains, func(i, j int) bool { return s.Domains[i].Domain < s.Domains[j].Domain }) {
		t.Error("domains not sorted")
	}
	totalFresh := 0
	for _, d := range s.Domains {
		totalFresh += d.Fresh
		if d.Known < d.Fresh {
			t.Errorf("%s: known %d < fresh %d", d.Domain, d.Known, d.Fresh)
		}
		if d.Digest == 0 {
			t.Errorf("%s: zero digest over a non-empty set", d.Domain)
		}
	}
	if totalFresh != s.Entries {
		t.Errorf("domain fresh sum %d != entries %d", totalFresh, s.Entries)
	}

	// Digests are deterministic for an unchanged store and move when the
	// served set changes.
	again := BuildSummary("ap0", testAddr, store, 2, 0)
	digests := func(s *Summary) map[string]uint64 {
		out := map[string]uint64{}
		for _, d := range s.Domains {
			out[d.Domain] = d.Digest
		}
		return out
	}
	before := digests(s)
	for dom, dg := range digests(again) {
		if before[dom] != dg {
			t.Errorf("%s: digest changed on an unchanged store", dom)
		}
	}
	put(t, store, "http://d0.example/new", time.Hour)
	after := digests(BuildSummary("ap0", testAddr, store, 3, 0))
	if after["d0.example"] == before["d0.example"] {
		t.Error("d0 digest unchanged after adding an object")
	}
	if after["d1.example"] != before["d1.example"] {
		t.Error("d1 digest moved without a d1 change")
	}
}

func TestSummaryEncodeDecodeRoundTrip(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	store := cachepolicy.NewStore(sim, 5<<20, 0, cachepolicy.NewPACM(), nil)
	put(t, store, "http://a.example/x", time.Hour)
	s := BuildSummary("ap0", testAddr, store, 7, 3)
	body, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSummary(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.Node != "ap0" || got.Seq != 7 || got.Generation != 3 || got.Entries != 1 {
		t.Fatalf("round trip mangled summary: %+v", got)
	}
	if !got.Bloom.MayContain(dnswire.HashURL("http://a.example/x")) {
		t.Error("membership lost in round trip")
	}
}

func TestDecodeSummaryRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":     "{",
		"no node":      `{"addr":{"host":"a","port":1}}`,
		"no addr":      `{"node":"ap0"}`,
		"broken bloom": `{"node":"ap0","addr":{"host":"a","port":1},"bloom":{"k":3,"m":128,"bits":[1]}}`,
	}
	for name, body := range cases {
		if _, err := DecodeSummary([]byte(body)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// An empty cache publishes a summary with no filter; the nil Bloom must
// survive the wire and answer no to every lookup.
func TestEmptySummary(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	store := cachepolicy.NewStore(sim, 5<<20, 0, cachepolicy.NewPACM(), nil)
	s := BuildSummary("ap0", testAddr, store, 1, 0)
	if s.Entries != 0 || s.Bloom != nil {
		t.Fatalf("empty store summary: %+v", s)
	}
	body, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSummary(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.Bloom.MayContain(dnswire.HashURL("http://a.example/x")) {
		t.Error("empty summary claims membership")
	}
}
