package coopmesh

import (
	"math/rand"
	"testing"
)

// The summary filter's contract: an inserted member is NEVER reported
// absent (a false negative would hide cached bytes from the whole mesh),
// and the measured false-positive rate stays near the configured bound.
// Swept across randomized catalogs of several sizes and seeds.
func TestBloomMembershipProperty(t *testing.T) {
	for _, n := range []int{1, 10, 100, 1000, 5000} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			members := make(map[uint64]bool, n)
			b := NewBloom(n)
			for len(members) < n {
				h := rng.Uint64()
				members[h] = true
				b.Add(h)
			}
			for h := range members {
				if !b.MayContain(h) {
					t.Fatalf("n=%d seed=%d: false negative on member %#x", n, seed, h)
				}
			}
			const probes = 10000
			fps := 0
			for i := 0; i < probes; i++ {
				h := rng.Uint64()
				if members[h] {
					continue
				}
				if b.MayContain(h) {
					fps++
				}
			}
			rate := float64(fps) / probes
			// Headroom over the configured 1%: the sizing formula is
			// asymptotic, so sub-hundred-bit filters wobble hard (hence 6x
			// under n=100), but an order-of-magnitude miss at real catalog
			// sizes would mean broken hashing.
			bound := 3 * DefaultFPRate
			if n < 100 {
				bound = 6 * DefaultFPRate
			}
			if rate > bound {
				t.Errorf("n=%d seed=%d: measured FP rate %.4f, bound %.4f", n, seed, rate, bound)
			}
		}
	}
}

func TestBloomSizing(t *testing.T) {
	for _, n := range []int{1, 10, 1000, 100000} {
		b := NewBloom(n)
		if b.K < 1 || b.K > 16 {
			t.Errorf("n=%d: k=%d outside [1,16]", n, b.K)
		}
		if b.M < 64 {
			t.Errorf("n=%d: m=%d below the 64-bit floor", n, b.M)
		}
		if err := b.valid(); err != nil {
			t.Errorf("n=%d: fresh filter invalid: %v", n, err)
		}
	}
}

func TestBloomValidation(t *testing.T) {
	var nilBloom *Bloom
	if err := nilBloom.valid(); err != nil {
		t.Errorf("nil bloom (empty cache) must validate: %v", err)
	}
	if nilBloom.MayContain(42) {
		t.Error("nil bloom claims membership")
	}
	b := NewBloom(100)
	b.Bits = b.Bits[:len(b.Bits)-1]
	if err := b.valid(); err == nil {
		t.Error("truncated bit array validated")
	}
	b2 := NewBloom(100)
	b2.K = 99
	if err := b2.valid(); err == nil {
		t.Error("absurd probe count validated")
	}
}
