package apcache

import (
	"testing"
	"time"

	"apecache/internal/dnswire"
	"apecache/internal/httplite"
	"apecache/internal/objstore"
	"apecache/internal/vclock"
)

func TestParsePrefetchHeader(t *testing.T) {
	specs := parsePrefetchHeader("http://a.example/x;ttl=20;priority=2, http://a.example/y;ttl=5;priority=1")
	if len(specs) != 2 {
		t.Fatalf("specs = %d, want 2", len(specs))
	}
	if specs[0].url != "http://a.example/x" || specs[0].ttl != 20*time.Minute || specs[0].priority != objstore.PriorityHigh {
		t.Errorf("spec0 = %+v", specs[0])
	}
	if specs[1].priority != objstore.PriorityLow || specs[1].ttl != 5*time.Minute {
		t.Errorf("spec1 = %+v", specs[1])
	}
}

func TestParsePrefetchHeaderDefaultsAndGarbage(t *testing.T) {
	if specs := parsePrefetchHeader(""); specs != nil {
		t.Errorf("empty header gave %v", specs)
	}
	specs := parsePrefetchHeader("http://a.example/x, ,;;, http://a.example/y;ttl=banana;priority=9")
	if len(specs) != 2 {
		t.Fatalf("specs = %d, want 2 (garbage clauses skipped)", len(specs))
	}
	if specs[1].ttl != 10*time.Minute || specs[1].priority != objstore.PriorityLow {
		t.Errorf("bad attrs should fall back to defaults: %+v", specs[1])
	}
}

func TestParsePrefetchHeaderBoundsFanout(t *testing.T) {
	var header string
	for i := range 20 {
		if i > 0 {
			header += ","
		}
		header += "http://a.example/o" + string(rune('a'+i))
	}
	if specs := parsePrefetchHeader(header); len(specs) != maxPrefetchPerRequest {
		t.Errorf("specs = %d, want capped at %d", len(specs), maxPrefetchPerRequest)
	}
}

func TestDelegationWithPrefetchWarmsDependents(t *testing.T) {
	run(t, func(fx *fixture) {
		c := httplite.NewClient(fx.net.Node("client"))
		req := httplite.NewRequest("POST", "ap", "/delegate")
		req.Body = []byte(fx.obj.URL)
		req.Set("X-Ape-TTL", "30")
		req.Set("X-Ape-Priority", "2")
		req.Set("X-Ape-App", "t")
		// Hint: after /small the app will want /huge... which is over
		// the block threshold, plus a valid small dependent.
		req.Set("X-Ape-Prefetch", fx.big.URL+";ttl=30;priority=1")
		resp, err := c.Do(fx.ap.HTTPAddr(), req)
		if err != nil || resp.Status != 200 {
			t.Errorf("delegate: %v %d", err, resp.Status)
			return
		}
		// Let the background prefetch land.
		fx.sim.Sleep(5 * time.Second)
		if fx.ap.Prefetches != 1 {
			t.Errorf("Prefetches = %d, want 1", fx.ap.Prefetches)
		}
		// The oversized dependent must have been block-listed, exactly
		// like a delegated fetch.
		if got := fx.ap.Store().Flag(fx.big.URL); got != dnswire.FlagCacheMiss {
			t.Errorf("prefetched oversized flag = %v, want Cache-Miss", got)
		}
	})
}

func TestPrefetchSkipsWarmObjects(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() {
		fx := newFixture(t, sim)
		delegate(t, fx, fx.obj) // warm /small

		// A hint for an already-warm object must be a no-op.
		c := httplite.NewClient(fx.net.Node("client"))
		req := httplite.NewRequest("POST", "ap", "/delegate")
		req.Body = []byte(fx.obj.URL)
		req.Set("X-Ape-App", "t")
		req.Set("X-Ape-Prefetch", fx.obj.URL+";ttl=30;priority=2")
		if resp, err := c.Do(fx.ap.HTTPAddr(), req); err != nil || resp.Status != 200 {
			t.Errorf("delegate: %v", err)
			return
		}
		sim.Sleep(time.Second)
		if fx.ap.Prefetches != 0 {
			t.Errorf("Prefetches = %d, want 0 for warm object", fx.ap.Prefetches)
		}
	})
	sim.Shutdown()
	sim.Wait()
	if err := sim.Err(); err != nil {
		t.Fatal(err)
	}
}
