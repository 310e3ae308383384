//go:build !race

// Allocation budgets count heap allocations, which the race detector
// changes (its sync.Pool drops items at random), so this file is left out
// of -race builds.

package apcache

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"apecache/internal/dnswire"
	"apecache/internal/objstore"
	"apecache/internal/simnet"
	"apecache/internal/transport"
	"apecache/internal/vclock"
)

// lookupFixture is an unstarted AP whose store holds n cached URLs of one
// domain, and the DNS-Cache query a client registered for all n sends.
func lookupFixture(tb testing.TB, n int) (*AP, *dnswire.Message) {
	tb.Helper()
	sim := vclock.NewSim(time.Time{})
	ap := New(Config{
		Env:           sim,
		Host:          simnet.New(sim, 1).Node("ap"),
		CacheCapacity: 64 << 20,
		Rng:           rand.New(rand.NewSource(1)),
	})
	const domain = "api.batch.example"
	request := make([]dnswire.CacheEntry, n)
	for i := range n {
		obj := &objstore.Object{URL: fmt.Sprintf("http://%s/obj/%d", domain, i), App: "batch",
			Size: 1 << 10, TTL: time.Hour, Priority: 1 + i%2}
		if err := ap.store.Put(obj, obj.Body(), 20*time.Millisecond); err != nil {
			tb.Fatalf("Put: %v", err)
		}
		request[i] = dnswire.CacheEntry{Hash: obj.Hash()}
	}
	q := dnswire.NewQuery(7, domain, dnswire.TypeA)
	q.Additional = append(q.Additional, dnswire.NewCacheRR(domain, dnswire.ClassCacheRequest, request))
	return ap, q
}

// TestHandleDNSAllocsDoNotGrowWithDomain pins the single-pass flag batch:
// the number of allocations a DNS-Cache lookup costs the AP is the same
// for a 16-URL and a 256-URL domain (their sizes follow the wire bytes).
func TestHandleDNSAllocsDoNotGrowWithDomain(t *testing.T) {
	from := transport.Addr{Host: "client", Port: 9}
	allocs := func(n int) float64 {
		ap, q := lookupFixture(t, n)
		return testing.AllocsPerRun(200, func() {
			resp := ap.HandleDNS(from, q)
			if ip, ok := resp.AnswerA(); !ok || ip != dnswire.DummyIP {
				t.Fatalf("%d URLs: answer %v, want the dummy IP", n, ip)
			}
		})
	}
	small, large := allocs(16), allocs(256)
	if large > small {
		t.Errorf("HandleDNS allocates %.0f times at 256 URLs, %.0f at 16: must not grow with the domain", large, small)
	}
}

func BenchmarkHandleDNS(b *testing.B) {
	from := transport.Addr{Host: "client", Port: 9}
	for _, n := range []int{16, 256} {
		b.Run(fmt.Sprintf("urls=%d", n), func(b *testing.B) {
			ap, q := lookupFixture(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				ap.HandleDNS(from, q)
			}
		})
	}
}
