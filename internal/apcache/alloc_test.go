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
// domain, and a DNS-Cache query carrying hashes request hashes: the n
// cached URLs' first, then URLs the AP has never seen.
func lookupFixture(tb testing.TB, n, hashes int) (*AP, *dnswire.Message) {
	tb.Helper()
	sim := vclock.NewSim(time.Time{})
	ap := New(Config{
		Env:           sim,
		Host:          simnet.New(sim, 1).Node("ap"),
		CacheCapacity: 64 << 20,
		Rng:           rand.New(rand.NewSource(1)),
	})
	const domain = "api.batch.example"
	request := make([]dnswire.CacheEntry, hashes)
	for i := range max(n, hashes) {
		obj := &objstore.Object{URL: fmt.Sprintf("http://%s/obj/%d", domain, i), App: "batch",
			Size: 1 << 10, TTL: time.Hour, Priority: 1 + i%2}
		if i < n {
			if err := ap.store.Put(obj, obj.Body(), 20*time.Millisecond); err != nil {
				tb.Fatalf("Put: %v", err)
			}
		}
		if i < hashes {
			request[i] = dnswire.CacheEntry{Hash: obj.Hash()}
		}
	}
	q := dnswire.NewQuery(7, domain, dnswire.TypeA)
	q.Additional = append(q.Additional, dnswire.NewCacheRR(domain, dnswire.ClassCacheRequest, request))
	return ap, q
}

// TestHandleDNSAllocsDoNotGrowWithDomain pins the single-pass flag batch
// and the pooled request parse: the number of allocations a DNS-Cache
// lookup costs the AP is the same for a 16-URL and a 256-URL domain, and
// for a 16-URL domain asked about 256 hashes (their sizes follow the wire
// bytes of the response).
func TestHandleDNSAllocsDoNotGrowWithDomain(t *testing.T) {
	from := transport.Addr{Host: "client", Port: 9}
	allocs := func(n, hashes int) float64 {
		ap, q := lookupFixture(t, n, hashes)
		return testing.AllocsPerRun(200, func() {
			resp := ap.HandleDNS(from, q)
			if ip, ok := resp.AnswerA(); !ok || ip != dnswire.DummyIP {
				t.Fatalf("%d URLs, %d hashes: answer %v, want the dummy IP", n, hashes, ip)
			}
		})
	}
	small := allocs(16, 16)
	for _, c := range [][2]int{{256, 256}, {16, 256}} {
		if large := allocs(c[0], c[1]); large > small {
			t.Errorf("HandleDNS allocates %.0f times at %d URLs and %d request hashes, %.0f at 16: must not grow with the batch", large, c[0], c[1], small)
		}
	}
}

func BenchmarkHandleDNS(b *testing.B) {
	from := transport.Addr{Host: "client", Port: 9}
	for _, n := range []int{16, 256} {
		b.Run(fmt.Sprintf("urls=%d", n), func(b *testing.B) {
			ap, q := lookupFixture(b, n, n)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				ap.HandleDNS(from, q)
			}
		})
	}
}
