package cachepolicy

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"apecache/internal/dnswire"
	"apecache/internal/objstore"
	"apecache/internal/vclock"
)

func testObj(url, app string, size int, prio int, ttl time.Duration) *objstore.Object {
	return &objstore.Object{URL: url, App: app, Size: size, TTL: ttl, Priority: prio}
}

// runStore executes fn inside a simulation with a store of the given
// capacity and policy.
func runStore(t *testing.T, capacity int64, policy Policy, fn func(sim *vclock.Sim, s *Store)) {
	t.Helper()
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() {
		s := NewStore(sim, capacity, 0, policy, nil)
		fn(sim, s)
	})
}

func TestStoreFlagLifecycle(t *testing.T) {
	runStore(t, 10<<10, NewPACM(), func(sim *vclock.Sim, s *Store) {
		o := testObj("http://a.example/x", "a", 1024, 2, time.Minute)

		// Never seen: Delegation.
		if got := s.Flag(o.URL); got != dnswire.FlagDelegation {
			t.Errorf("unseen flag = %v, want Delegation", got)
		}
		if got := s.FlagByHash(o.Hash()); got != dnswire.FlagDelegation {
			t.Errorf("unseen hash flag = %v, want Delegation", got)
		}

		// Cached: Cache-Hit.
		if err := s.Put(o, o.Body(), 30*time.Millisecond); err != nil {
			t.Errorf("Put: %v", err)
			return
		}
		if got := s.FlagByHash(o.Hash()); got != dnswire.FlagCacheHit {
			t.Errorf("cached flag = %v, want Cache-Hit", got)
		}

		// Expired: Delegation again.
		sim.Sleep(2 * time.Minute)
		if got := s.Flag(o.URL); got != dnswire.FlagDelegation {
			t.Errorf("expired flag = %v, want Delegation", got)
		}
		if _, ok := s.Get(o.URL); ok {
			t.Error("Get returned an expired entry")
		}
	})
}

func TestStoreBlocklistsOversizedObjects(t *testing.T) {
	runStore(t, 10<<20, NewPACM(), func(sim *vclock.Sim, s *Store) {
		big := testObj("http://a.example/video", "a", 600<<10, 1, time.Hour)
		err := s.Put(big, make([]byte, big.Size), time.Millisecond)
		if !errors.Is(err, ErrBlocked) {
			t.Errorf("Put err = %v, want ErrBlocked", err)
		}
		// Block-listed objects are Cache-Miss thereafter (§IV-B).
		if got := s.Flag(big.URL); got != dnswire.FlagCacheMiss {
			t.Errorf("blocked flag = %v, want Cache-Miss", got)
		}
		if got := s.FlagByHash(big.Hash()); got != dnswire.FlagCacheMiss {
			t.Errorf("blocked hash flag = %v, want Cache-Miss", got)
		}
		if s.Stats().Blocked != 1 {
			t.Errorf("Blocked stat = %d", s.Stats().Blocked)
		}
	})
}

func TestStoreRejectsLargerThanCapacity(t *testing.T) {
	runStore(t, 2<<10, NewPACM(), func(sim *vclock.Sim, s *Store) {
		o := testObj("http://a.example/x", "a", 4<<10, 2, time.Hour)
		if err := s.Put(o, make([]byte, o.Size), time.Millisecond); !errors.Is(err, ErrBlocked) {
			t.Errorf("err = %v, want ErrBlocked", err)
		}
	})
}

func TestStoreRefreshUpdatesInPlace(t *testing.T) {
	runStore(t, 10<<10, NewPACM(), func(sim *vclock.Sim, s *Store) {
		o := testObj("http://a.example/x", "a", 1024, 2, time.Minute)
		if err := s.Put(o, make([]byte, 1024), time.Millisecond); err != nil {
			t.Errorf("Put: %v", err)
			return
		}
		sim.Sleep(50 * time.Second)
		if err := s.Put(o, make([]byte, 2048), time.Millisecond); err != nil {
			t.Errorf("refresh: %v", err)
			return
		}
		if s.Len() != 1 || s.Used() != 2048 {
			t.Errorf("len=%d used=%d, want 1/2048", s.Len(), s.Used())
		}
		sim.Sleep(30 * time.Second) // 80s after first insert, 30s after refresh
		if got := s.Flag(o.URL); got != dnswire.FlagCacheHit {
			t.Errorf("flag after refresh = %v, want Cache-Hit (TTL restarted)", got)
		}
		if s.Stats().Updates != 1 {
			t.Errorf("Updates = %d", s.Stats().Updates)
		}
	})
}

func TestStoreCapacityInvariantProperty(t *testing.T) {
	for _, policy := range []Policy{NewPACM(), NewLRU()} {
		policy := policy
		t.Run(policy.Name(), func(t *testing.T) {
			runStore(t, 64<<10, policy, func(sim *vclock.Sim, s *Store) {
				rng := rand.New(rand.NewSource(9))
				for i := range 300 {
					size := 1 + rng.Intn(20<<10)
					o := testObj(fmt.Sprintf("http://app%d.example/o%d", i%7, i), fmt.Sprintf("app%d", i%7),
						size, 1+i%2, time.Duration(1+rng.Intn(30))*time.Minute)
					_ = s.Put(o, make([]byte, size), time.Duration(rng.Intn(50))*time.Millisecond)
					if s.Used() > s.Capacity() {
						t.Fatalf("capacity exceeded: used=%d cap=%d after %d puts", s.Used(), s.Capacity(), i+1)
					}
					sim.Sleep(time.Duration(rng.Intn(2000)) * time.Millisecond)
				}
				if s.Stats().Evictions == 0 {
					t.Error("expected evictions under pressure")
				}
			})
		})
	}
}

func TestStoreDomainBatchingAndDummyIPCondition(t *testing.T) {
	runStore(t, 100<<10, NewPACM(), func(sim *vclock.Sim, s *Store) {
		o1 := testObj("http://api.movie.example/id", "movie", 100, 2, time.Hour)
		o2 := testObj("http://api.movie.example/thumb", "movie", 200, 2, time.Hour)
		o3 := testObj("http://other.example/x", "other", 100, 1, time.Hour)
		for _, o := range []*objstore.Object{o1, o2, o3} {
			if err := s.Put(o, make([]byte, o.Size), time.Millisecond); err != nil {
				t.Errorf("Put: %v", err)
				return
			}
		}
		entries := s.KnownHashesForDomain("api.movie.example")
		if len(entries) != 2 {
			t.Errorf("batched entries = %d, want 2", len(entries))
		}
		for _, e := range entries {
			if e.Flag != dnswire.FlagCacheHit {
				t.Errorf("entry flag = %v, want Cache-Hit", e.Flag)
			}
		}
		if got := s.KnownHashesForDomain("unknown.example"); got != nil {
			t.Errorf("unknown domain batch = %v, want nil", got)
		}
		// Expire the objects: the batch keeps every URL, now as Delegation.
		sim.Sleep(2 * time.Hour)
		entries = s.KnownHashesForDomain("api.movie.example")
		if len(entries) != 2 {
			t.Errorf("batched entries after expiry = %d, want 2", len(entries))
		}
		for _, e := range entries {
			if e.Flag != dnswire.FlagDelegation {
				t.Errorf("expired entry flag = %v, want Delegation", e.Flag)
			}
		}
	})
}

func TestStoreEvictedHashStaysKnown(t *testing.T) {
	runStore(t, 4<<10, NewLRU(), func(sim *vclock.Sim, s *Store) {
		o1 := testObj("http://a.example/1", "a", 3<<10, 1, time.Hour)
		o2 := testObj("http://a.example/2", "a", 3<<10, 1, time.Hour)
		if err := s.Put(o1, make([]byte, o1.Size), time.Millisecond); err != nil {
			t.Errorf("Put1: %v", err)
			return
		}
		sim.Sleep(time.Second)
		if err := s.Put(o2, make([]byte, o2.Size), time.Millisecond); err != nil {
			t.Errorf("Put2: %v", err)
			return
		}
		// o1 evicted, but the AP has seen it: Delegation, not silence.
		if got := s.FlagByHash(o1.Hash()); got != dnswire.FlagDelegation {
			t.Errorf("evicted flag = %v, want Delegation", got)
		}
		if got := s.FlagByHash(o2.Hash()); got != dnswire.FlagCacheHit {
			t.Errorf("resident flag = %v, want Cache-Hit", got)
		}
	})
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	runStore(t, 8<<10, NewLRU(), func(sim *vclock.Sim, s *Store) {
		a := testObj("http://x.example/a", "x", 3<<10, 1, time.Hour)
		b := testObj("http://x.example/b", "x", 3<<10, 1, time.Hour)
		c := testObj("http://x.example/c", "x", 3<<10, 1, time.Hour)
		_ = s.Put(a, make([]byte, a.Size), time.Millisecond)
		sim.Sleep(time.Second)
		_ = s.Put(b, make([]byte, b.Size), time.Millisecond)
		sim.Sleep(time.Second)
		// Touch a so b becomes least recently used.
		if _, ok := s.Get(a.URL); !ok {
			t.Error("Get(a) missed")
			return
		}
		sim.Sleep(time.Second)
		_ = s.Put(c, make([]byte, c.Size), time.Millisecond)
		if _, ok := s.Get(a.URL); !ok {
			t.Error("a (recently used) was evicted")
		}
		if _, ok := s.Get(b.URL); ok {
			t.Error("b (least recently used) survived")
		}
	})
}
