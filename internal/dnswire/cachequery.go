package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
)

// CacheFlag is the per-URL cache status carried in a DNS-Cache RR
// (§IV-B of the paper).
type CacheFlag uint8

// Cache status flags. FlagNone is used in requests, where only the hash is
// meaningful.
const (
	FlagNone CacheFlag = iota
	// FlagCacheHit: the object is stored on the AP and can be fetched
	// from it directly.
	FlagCacheHit
	// FlagCacheMiss: the AP refuses to serve or delegate the object (it
	// is on the block list); fetch from the edge.
	FlagCacheMiss
	// FlagDelegation: the AP does not hold the object but will fetch,
	// cache and relay it if asked (first sighting or expired entry).
	FlagDelegation
	// FlagStale: the AP holds a copy that the origin has purged but the
	// coherence policy (stale-while-revalidate) still allows serving once
	// while a background revalidation runs; the client may fetch it from
	// the AP at hit speed, accepting one potentially stale response.
	FlagStale
)

// String renders the flag mnemonic.
func (f CacheFlag) String() string {
	switch f {
	case FlagNone:
		return "None"
	case FlagCacheHit:
		return "Cache-Hit"
	case FlagCacheMiss:
		return "Cache-Miss"
	case FlagDelegation:
		return "Delegation"
	case FlagStale:
		return "Stale"
	default:
		return fmt.Sprintf("Flag(%d)", uint8(f))
	}
}

// CacheEntry is one ⟨HASH(URL), FLAG⟩ tuple of a DNS-Cache RDATA.
type CacheEntry struct {
	Hash uint64
	Flag CacheFlag
}

// ErrNotCacheRR reports that a record is not a DNS-Cache RR.
var ErrNotCacheRR = errors.New("dnswire: not a DNS-Cache resource record")

const cacheEntrySize = 9 // 8-byte hash + 1-byte flag

// NewCacheRR builds a DNS-Cache RR for the Additional section. The class
// distinguishes requests from responses; entries hold the hashed URLs (the
// paper hashes to keep plaintext URLs out of unencrypted DNS messages).
func NewCacheRR(domain string, class Class, entries []CacheEntry) RR {
	data := make([]byte, 0, len(entries)*cacheEntrySize)
	for _, e := range entries {
		data = binary.BigEndian.AppendUint64(data, e.Hash)
		data = append(data, byte(e.Flag))
	}
	return RR{Name: CanonicalName(domain), Type: TypeDNSCache, Class: class, Data: data}
}

// ParseCacheRR extracts the entries of a DNS-Cache RR.
func ParseCacheRR(rr RR) ([]CacheEntry, error) {
	entries, err := AppendCacheEntries(make([]CacheEntry, 0, len(rr.Data)/cacheEntrySize), rr)
	if err != nil {
		return nil, err
	}
	return entries, nil
}

// AppendCacheEntries appends the entries of a DNS-Cache RR to dst, letting
// a caller parse into reused scratch. On error dst comes back unchanged.
func AppendCacheEntries(dst []CacheEntry, rr RR) ([]CacheEntry, error) {
	if rr.Type != TypeDNSCache {
		return dst, ErrNotCacheRR
	}
	if len(rr.Data)%cacheEntrySize != 0 {
		return dst, fmt.Errorf("dnswire: DNS-Cache RDATA length %d: %w", len(rr.Data), ErrTruncatedMessage)
	}
	dst = slices.Grow(dst, len(rr.Data)/cacheEntrySize)
	for i := 0; i+cacheEntrySize <= len(rr.Data); i += cacheEntrySize {
		dst = append(dst, CacheEntry{
			Hash: binary.BigEndian.Uint64(rr.Data[i:]),
			Flag: CacheFlag(rr.Data[i+8]),
		})
	}
	return dst, nil
}

// FindCacheRR returns the first DNS-Cache RR of the given class in the
// Additional section.
func (m *Message) FindCacheRR(class Class) (RR, bool) {
	for _, rr := range m.Additional {
		if rr.Type == TypeDNSCache && rr.Class == class {
			return rr, true
		}
	}
	return RR{}, false
}

// HashURL hashes a URL for transmission in DNS-Cache RDATA (FNV-1a 64-bit;
// the paper leaves the hash function unspecified).
func HashURL(url string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(url))
	return h.Sum64()
}

// BasicURL strips the query string and fragment, yielding the object
// identity used for cache matching ("basic URLs without parameters").
func BasicURL(url string) string {
	if i := strings.IndexAny(url, "?#"); i >= 0 {
		url = url[:i]
	}
	return url
}

// URLDomain extracts the host part of a URL (no port handling: the
// simulated URL space uses bare hostnames).
func URLDomain(url string) string {
	rest := url
	if i := strings.Index(rest, "://"); i >= 0 {
		rest = rest[i+3:]
	}
	if i := strings.IndexAny(rest, "/?#"); i >= 0 {
		rest = rest[:i]
	}
	if i := strings.IndexByte(rest, ':'); i >= 0 {
		rest = rest[:i]
	}
	return CanonicalName(rest)
}

// URLPath extracts the path part of a URL including the leading slash.
func URLPath(url string) string {
	rest := url
	if i := strings.Index(rest, "://"); i >= 0 {
		rest = rest[i+3:]
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		return rest[i:]
	}
	return "/"
}

// NewTraceRR builds the telemetry RR that piggybacks a trace ID on a
// DNS-Cache query: Type 300 like the cache RR, ClassTrace so the AP's
// FindCacheRR scans ignore it, RDATA the 8-byte big-endian trace ID.
func NewTraceRR(domain string, traceID uint64) RR {
	var data [8]byte
	binary.BigEndian.PutUint64(data[:], traceID)
	return RR{Name: CanonicalName(domain), Type: TypeDNSCache, Class: ClassTrace, Data: data[:]}
}

// TraceID extracts a piggybacked trace ID from the Additional section,
// reporting false when the query carries none (or a malformed one).
func (m *Message) TraceID() (uint64, bool) {
	for _, rr := range m.Additional {
		if rr.Type == TypeDNSCache && rr.Class == ClassTrace && len(rr.Data) == 8 {
			id := binary.BigEndian.Uint64(rr.Data)
			return id, id != 0
		}
	}
	return 0, false
}

// DummyIP is returned by an APE-CACHE AP in place of a real resolution
// when every URL of the domain is cached locally, letting the client skip
// upstream DNS entirely (TEST-NET-2, never routable).
var DummyIP = IPv4{198, 51, 100, 1}
