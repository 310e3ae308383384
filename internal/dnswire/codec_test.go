package dnswire

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestQueryRoundTrip(t *testing.T) {
	q := NewQuery(0x1234, "WWW.Apple.COM.", TypeA)
	wire, err := q.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Header.ID != 0x1234 || got.Header.Response || !got.Header.RecursionDesired {
		t.Errorf("header = %+v", got.Header)
	}
	want := Question{Name: "www.apple.com", Type: TypeA, Class: ClassIN}
	if got.FirstQuestion() != want {
		t.Errorf("question = %+v, want %+v", got.FirstQuestion(), want)
	}
}

// newTXT builds a single-string TXT record (text under 256 bytes).
func newTXT(name string, ttl uint32, text string) RR {
	data := append([]byte{byte(len(text))}, text...)
	return RR{Name: CanonicalName(name), Type: TypeTXT, Class: ClassIN, TTL: ttl, Data: data}
}

func TestResponseWithAllSectionsRoundTrips(t *testing.T) {
	q := NewQuery(7, "www.apple.com", TypeA)
	r := q.Reply()
	r.Answers = append(r.Answers,
		NewCNAME("www.apple.com", 300, "www.apple.com.edgekey.net"),
		NewA("www.apple.com.edgekey.net", 20, IPv4{93, 184, 216, 34}),
	)
	r.Authority = append(r.Authority, NewCNAME("apple.com", 600, "ns.apple.com"))
	r.Additional = append(r.Additional,
		newTXT("meta.apple.com", 60, "hello world"),
		NewOPT(4096),
	)
	wire, err := r.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !got.Header.Response {
		t.Error("lost QR flag")
	}
	ip, ok := got.AnswerA()
	if !ok || ip != (IPv4{93, 184, 216, 34}) {
		t.Errorf("AnswerA = %v, %v", ip, ok)
	}
	cname, ok := got.AnswerCNAME()
	if !ok || cname != "www.apple.com.edgekey.net" {
		t.Errorf("AnswerCNAME = %q, %v", cname, ok)
	}
	txt, err := got.Additional[0].TXTString()
	if err != nil || txt != "hello world" {
		t.Errorf("TXT = %q, %v", txt, err)
	}
	if got.Additional[1].Type != TypeOPT || got.Additional[1].Class != Class(4096) {
		t.Errorf("OPT = %+v", got.Additional[1])
	}
}

func TestNameCompressionShrinksMessage(t *testing.T) {
	m := NewQuery(1, "a.very.long.domain.example.com", TypeA)
	m.Answers = append(m.Answers,
		NewA("a.very.long.domain.example.com", 30, IPv4{1, 2, 3, 4}),
		NewA("b.very.long.domain.example.com", 30, IPv4{1, 2, 3, 5}),
	)
	wire, err := m.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	// Uncompressed, the three names alone take 3 × 32 bytes; compression
	// should replace repeats with 2-byte pointers.
	if len(wire) > 90 {
		t.Errorf("message %d bytes; compression appears ineffective", len(wire))
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Answers[1].Name != "b.very.long.domain.example.com" {
		t.Errorf("second answer name = %q", got.Answers[1].Name)
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	m := NewQuery(9, "example.com", TypeA)
	wire, _ := m.Encode()
	for _, cut := range []int{1, 5, 11, len(wire) - 1} {
		if _, err := Decode(wire[:cut]); err == nil {
			t.Errorf("Decode of %d-byte prefix succeeded, want error", cut)
		}
	}
}

func TestDecodeRejectsPointerLoop(t *testing.T) {
	// Header with QDCOUNT=1, then a name that points at itself.
	wire := make([]byte, 12)
	wire[5] = 1 // QDCOUNT
	wire = append(wire, 0xC0, 12)
	wire = append(wire, 0, 1, 0, 1)
	if _, err := Decode(wire); !errors.Is(err, ErrBadPointer) {
		t.Errorf("err = %v, want ErrBadPointer", err)
	}
}

func TestDecodeRejectsOversizedLabel(t *testing.T) {
	name := strings.Repeat("x", 64) + ".com"
	m := NewQuery(3, name, TypeA)
	if _, err := m.Encode(); !errors.Is(err, ErrBadName) {
		t.Errorf("Encode err = %v, want ErrBadName", err)
	}
}

func TestRoundTripPropertyRandomMessages(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	randName := func() string {
		labels := make([]string, 1+rng.Intn(4))
		for i := range labels {
			n := 1 + rng.Intn(12)
			b := make([]byte, n)
			for j := range b {
				b[j] = byte('a' + rng.Intn(26))
			}
			labels[i] = string(b)
		}
		return strings.Join(labels, ".")
	}
	for range 200 {
		m := NewQuery(uint16(rng.Uint32()), randName(), TypeA)
		m.Header.Response = rng.Intn(2) == 0
		m.Header.RCode = RCode(rng.Intn(6))
		for range rng.Intn(4) {
			switch rng.Intn(3) {
			case 0:
				m.Answers = append(m.Answers, NewA(randName(), uint32(rng.Intn(3600)), IPv4{byte(rng.Intn(256)), 1, 2, 3}))
			case 1:
				m.Answers = append(m.Answers, NewCNAME(randName(), uint32(rng.Intn(3600)), randName()))
			default:
				m.Additional = append(m.Additional, newTXT(randName(), 60, randName()))
			}
		}
		wire, err := m.Encode()
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		got, err := Decode(wire)
		if err != nil {
			t.Fatalf("Decode: %v (msg %+v)", err, m)
		}
		if !reflect.DeepEqual(got.Header, m.Header) {
			t.Fatalf("header mismatch: got %+v want %+v", got.Header, m.Header)
		}
		if !reflect.DeepEqual(got.Questions, m.Questions) {
			t.Fatalf("questions mismatch: got %+v want %+v", got.Questions, m.Questions)
		}
		if len(got.Answers) != len(m.Answers) || len(got.Additional) != len(m.Additional) {
			t.Fatalf("section sizes changed")
		}
		for i := range m.Answers {
			if got.Answers[i].Name != m.Answers[i].Name || got.Answers[i].Type != m.Answers[i].Type ||
				!bytes.Equal(got.Answers[i].Data, m.Answers[i].Data) {
				t.Fatalf("answer %d mismatch: got %+v want %+v", i, got.Answers[i], m.Answers[i])
			}
		}
	}
}

func TestCacheRRRoundTripProperty(t *testing.T) {
	f := func(hashes []uint64, flagSeed uint8) bool {
		entries := make([]CacheEntry, len(hashes))
		for i, h := range hashes {
			entries[i] = CacheEntry{Hash: h, Flag: CacheFlag(1 + (uint8(i)+flagSeed)%4)}
		}
		rr := NewCacheRR("api.example.com", ClassCacheResponse, entries)
		got, err := ParseCacheRR(rr)
		if err != nil {
			return false
		}
		if len(got) != len(entries) {
			return false
		}
		for i := range entries {
			if got[i] != entries[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCacheRRInMessageSurvivesWire(t *testing.T) {
	entries := []CacheEntry{
		{Hash: HashURL("http://api.movie.example/id"), Flag: FlagCacheHit},
		{Hash: HashURL("http://api.movie.example/thumb"), Flag: FlagDelegation},
		{Hash: HashURL("http://api.movie.example/cast"), Flag: FlagCacheMiss},
	}
	q := NewQuery(42, "api.movie.example", TypeA)
	q.Additional = append(q.Additional, NewCacheRR("api.movie.example", ClassCacheRequest, entries[:2]))
	wire, err := q.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	rr, ok := got.FindCacheRR(ClassCacheRequest)
	if !ok {
		t.Fatal("request cache RR not found")
	}
	parsed, err := ParseCacheRR(rr)
	if err != nil || len(parsed) != 2 {
		t.Fatalf("ParseCacheRR = %v, %v", parsed, err)
	}
	if _, ok := got.FindCacheRR(ClassCacheResponse); ok {
		t.Error("found response RR in a request message")
	}
}

func TestStaleFlagSurvivesWire(t *testing.T) {
	if FlagStale.String() != "Stale" || FlagStale != 4 {
		t.Fatalf("FlagStale = %d %q", FlagStale, FlagStale)
	}
	entries := []CacheEntry{
		{Hash: HashURL("http://api.movie.example/id"), Flag: FlagStale},
		{Hash: HashURL("http://api.movie.example/cast"), Flag: FlagCacheHit},
	}
	q := NewQuery(43, "api.movie.example", TypeA)
	q.Additional = append(q.Additional, NewCacheRR("api.movie.example", ClassCacheResponse, entries))
	wire, err := q.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	rr, ok := got.FindCacheRR(ClassCacheResponse)
	if !ok {
		t.Fatal("cache RR not found")
	}
	parsed, err := ParseCacheRR(rr)
	if err != nil || len(parsed) != 2 {
		t.Fatalf("ParseCacheRR = %v, %v", parsed, err)
	}
	if parsed[0].Flag != FlagStale || parsed[1].Flag != FlagCacheHit {
		t.Errorf("flags drifted: %+v", parsed)
	}
}

func TestParseCacheRRRejectsWrongType(t *testing.T) {
	if _, err := ParseCacheRR(NewA("x.com", 1, IPv4{})); !errors.Is(err, ErrNotCacheRR) {
		t.Errorf("err = %v, want ErrNotCacheRR", err)
	}
}

func TestParseCacheRRRejectsRaggedData(t *testing.T) {
	rr := NewCacheRR("x.com", ClassCacheRequest, []CacheEntry{{Hash: 1, Flag: FlagCacheHit}})
	rr.Data = rr.Data[:5]
	if _, err := ParseCacheRR(rr); err == nil {
		t.Error("expected error for ragged RDATA")
	}
}

// TestAppendCacheEntries: entries land after what dst holds, in wire
// order, and a rejected RR leaves dst as it was.
func TestAppendCacheEntries(t *testing.T) {
	dst := []CacheEntry{{Hash: 9, Flag: FlagStale}}
	rr := NewCacheRR("x.com", ClassCacheResponse, []CacheEntry{{Hash: 1, Flag: FlagCacheHit}, {Hash: 2, Flag: FlagDelegation}})
	got, err := AppendCacheEntries(dst, rr)
	want := []CacheEntry{{Hash: 9, Flag: FlagStale}, {Hash: 1, Flag: FlagCacheHit}, {Hash: 2, Flag: FlagDelegation}}
	if err != nil || !slices.Equal(got, want) {
		t.Errorf("AppendCacheEntries = %v, %v; want %v", got, err, want)
	}
	rr.Data = rr.Data[:5]
	for _, bad := range []RR{rr, NewA("x.com", 1, IPv4{})} {
		if got, err := AppendCacheEntries(dst, bad); err == nil || !slices.Equal(got, dst) {
			t.Errorf("AppendCacheEntries(type %d, %d bytes) = %v, %v; want dst unchanged and an error", bad.Type, len(bad.Data), got, err)
		}
	}
}

func TestURLHelpers(t *testing.T) {
	cases := []struct {
		url, basic, domain, path string
	}{
		{"http://api.movie.example/v1/id?name=dune#x", "http://api.movie.example/v1/id", "api.movie.example", "/v1/id"},
		{"https://Cdn.Example.COM/thumb.jpg", "https://Cdn.Example.COM/thumb.jpg", "cdn.example.com", "/thumb.jpg"},
		{"bare.host", "bare.host", "bare.host", "/"},
		{"http://h:8080/p", "http://h:8080/p", "h", "/p"},
	}
	for _, c := range cases {
		if got := BasicURL(c.url); got != c.basic {
			t.Errorf("BasicURL(%q) = %q, want %q", c.url, got, c.basic)
		}
		if got := URLDomain(c.url); got != c.domain {
			t.Errorf("URLDomain(%q) = %q, want %q", c.url, got, c.domain)
		}
		if got := URLPath(BasicURL(c.url)); got != c.path {
			t.Errorf("URLPath(%q) = %q, want %q", c.url, got, c.path)
		}
	}
}

func TestHashURLIsStableAndSpreads(t *testing.T) {
	if HashURL("a") == HashURL("b") {
		t.Error("trivial collision")
	}
	if HashURL("http://x/1") != HashURL("http://x/1") {
		t.Error("hash not deterministic")
	}
}

func TestFlagAndTypeStrings(t *testing.T) {
	if FlagCacheHit.String() != "Cache-Hit" || FlagDelegation.String() != "Delegation" || FlagCacheMiss.String() != "Cache-Miss" {
		t.Error("flag mnemonics wrong")
	}
	if TypeDNSCache.String() != "DNSCACHE" || ClassCacheRequest.String() != "REQUEST" {
		t.Error("type/class mnemonics wrong")
	}
}
