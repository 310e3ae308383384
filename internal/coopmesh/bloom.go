// Package coopmesh is the AP-to-AP cooperative cache mesh: every AP
// periodically publishes a compact summary of its cache contents (a Bloom
// filter over the resident URL hashes plus per-domain digests) to the
// Wi-Cache controller, which aggregates the summaries into a peer
// directory. On a local miss an AP asks the directory which peer likely
// holds the object and fetches it over the LAN instead of delegating to
// the edge — cooperative caching (Atzeni et al.) with the latency-aware
// peer-vs-edge gate of LAC: the peer path is only taken when its modeled
// RTT beats the edge path.
//
// Summaries are probabilistic: a Bloom positive may be false, and a peer
// may have evicted the object since it last published. Both cases fall
// back to the ordinary edge delegation, so the mesh can only remove
// backhaul traffic, never correctness. Coherence safety comes from two
// sides: peer fills carry the origin version and are gated by the same
// purge high-water mark as edge fills, and the controller tombstones a
// URL on every relayed purge so summaries published before the purge stop
// yielding that URL.
package coopmesh

import (
	"fmt"
	"math"
)

// DefaultFPRate is the Bloom false-positive bound summaries are sized
// for: ~1% keeps a 320-object AP cache summary under 400 bytes of filter.
const DefaultFPRate = 0.01

// Bloom is a JSON-serializable Bloom filter over 64-bit URL hashes. It
// uses double hashing (Kirsch–Mitzenmacher): the i-th probe position is
// h1 + i*h2 mod m, with h1/h2 derived from the one URL hash the DNS-Cache
// wire format already computes — no re-hashing of URL bytes.
type Bloom struct {
	// K is the number of probe positions per element.
	K uint32 `json:"k"`
	// M is the filter size in bits (len(Bits)*64 rounded up from it).
	M uint64 `json:"m"`
	// Bits is the packed bit array.
	Bits []uint64 `json:"bits"`
}

// NewBloom sizes a filter for n elements at DefaultFPRate.
func NewBloom(n int) *Bloom {
	if n < 1 {
		n = 1
	}
	ln2 := math.Ln2
	m := uint64(math.Ceil(-float64(n) * math.Log(DefaultFPRate) / (ln2 * ln2)))
	if m < 64 {
		m = 64
	}
	k := uint32(math.Round(float64(m) / float64(n) * ln2))
	if k < 1 {
		k = 1
	}
	if k > 16 {
		k = 16
	}
	return &Bloom{K: k, M: m, Bits: make([]uint64, (m+63)/64)}
}

// mix64 is the splitmix64 finalizer: it derives the second probe hash
// from the first so a single 64-bit URL hash feeds all K probes.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Add inserts a URL hash.
func (b *Bloom) Add(h uint64) {
	h1, h2 := h, mix64(h)|1
	for i := uint32(0); i < b.K; i++ {
		pos := (h1 + uint64(i)*h2) % b.M
		b.Bits[pos/64] |= 1 << (pos % 64)
	}
}

// MayContain reports whether the hash may have been added: false is
// definitive (zero false negatives), true is probabilistic.
func (b *Bloom) MayContain(h uint64) bool {
	if b == nil || b.M == 0 || len(b.Bits) == 0 {
		return false
	}
	h1, h2 := h, mix64(h)|1
	for i := uint32(0); i < b.K; i++ {
		pos := (h1 + uint64(i)*h2) % b.M
		if b.Bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// valid sanity-checks a decoded filter.
func (b *Bloom) valid() error {
	if b == nil {
		return nil // an empty cache publishes no filter
	}
	if b.K < 1 || b.K > 16 {
		return fmt.Errorf("coopmesh: bloom k=%d out of range", b.K)
	}
	if b.M == 0 || uint64(len(b.Bits)) != (b.M+63)/64 {
		return fmt.Errorf("coopmesh: bloom bits/m mismatch (m=%d, words=%d)", b.M, len(b.Bits))
	}
	return nil
}
