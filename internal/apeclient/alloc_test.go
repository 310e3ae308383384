//go:build !race

package apeclient

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"apecache/internal/cachepolicy"
	"apecache/internal/objstore"
	"apecache/internal/vclock"
)

// TestRequestEntriesAllocFree pins the domain index on the lookup path:
// fetching the request RR of a 256-URL app costs no allocation (before the
// index it scanned and re-hashed every declaration per lookup, and until
// the RR was kept it re-encoded every hash per lookup).
func TestRequestEntriesAllocFree(t *testing.T) {
	r := NewRegistry("big")
	for i := range 256 {
		id := fmt.Sprintf("http://api.big.example/obj/%d", i)
		if err := r.Register(Cacheable{ID: id, Priority: 1, TTL: time.Minute}); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if n := len(r.requestRR("api.big.example").Data); n != 256*9 {
			t.Fatalf("requestRR = %d bytes, want 256 entries", n)
		}
	})
	if allocs != 0 {
		t.Errorf("requestRR allocates %.0f times per lookup, want 0", allocs)
	}
}

// TestGetAllocsDoNotGrowWithDomain pins the flag cache: a Get whose lookup
// goes to the AP allocates as often for a 256-URL domain as for a 16-URL
// one, and its extra bytes per declared URL stay a small multiple of the
// 9-byte wire entry (a per-lookup map over the batch costs more than that).
func TestGetAllocsDoNotGrowWithDomain(t *testing.T) {
	measure := func(n int) (allocs, bytes float64) {
		objs := make([]*objstore.Object, n)
		for i := range objs {
			objs[i] = &objstore.Object{URL: fmt.Sprintf("http://api.big.example/obj/%d", i), App: "big",
				Size: 256, TTL: time.Hour, Priority: 1}
		}
		sim := vclock.NewSim(time.Time{})
		sim.Run("main", func() {
			fx := newFixture(t, sim, objstore.NewCatalog(objs...), cachepolicy.NewPACM(), 64<<20)
			reg := NewRegistry("big")
			for _, o := range objs {
				if err := reg.Register(Cacheable{ID: o.URL, Priority: 1, TTL: time.Hour}); err != nil {
					t.Fatalf("Register: %v", err)
				}
			}
			c := New(Config{Env: sim, Host: fx.net.Node("client"), Registry: reg, APDNS: fx.ap.DNSAddr(),
				APHTTP: fx.ap.HTTPAddr(), Book: fx.book, Rng: rand.New(rand.NewSource(3)),
				FlagTTL: time.Nanosecond}) // every Get looks up
			for _, o := range objs {
				if _, err := c.Get(o.URL); err != nil { // warm: all cached on the AP
					t.Fatalf("warm-up Get: %v", err)
				}
			}
			get := func() {
				if _, err := c.Get(objs[0].URL); err != nil {
					t.Fatalf("Get: %v", err)
				}
			}
			const runs = 50
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				get()
			}
			runtime.ReadMemStats(&after)
			bytes = float64(after.TotalAlloc-before.TotalAlloc) / runs
			allocs = testing.AllocsPerRun(runs, get)
		})
		sim.Shutdown()
		sim.Wait()
		return allocs, bytes
	}
	smallAllocs, smallBytes := measure(16)
	largeAllocs, largeBytes := measure(256)
	t.Logf("Get: 16 URLs %.0f allocs %.0f B, 256 URLs %.0f allocs %.0f B", smallAllocs, smallBytes, largeAllocs, largeBytes)
	if largeAllocs > smallAllocs {
		t.Errorf("Get allocates %.0f times at 256 URLs, %.0f at 16: must not grow with the domain", largeAllocs, smallAllocs)
	}
	if perURL := (largeBytes - smallBytes) / 240; perURL > 80 {
		t.Errorf("Get allocates %.0f B per extra declared URL, want at most 80", perURL)
	}
}
