package dnswire

import (
	"fmt"
	"testing"
)

// cacheResponse builds a representative DNS-Cache response: an A answer
// plus a piggybacked DNS-Cache RR batching flags for n URLs of a domain —
// the message the AP encodes on every piggybacked lookup.
func cacheResponse(n int) *Message {
	entries := make([]CacheEntry, n)
	for i := range entries {
		entries[i] = CacheEntry{
			Hash: HashURL(fmt.Sprintf("http://api.movie.example/clip/%d", i)),
			Flag: CacheFlag(i % 4),
		}
	}
	q := NewQuery(0x1234, "api.movie.example", TypeA)
	resp := q.Reply()
	resp.Answers = append(resp.Answers, NewA("api.movie.example", 60, IPv4{10, 0, 0, 7}))
	resp.Additional = append(resp.Additional, NewCacheRR("api.movie.example", ClassCacheResponse, entries))
	return resp
}

// TestAppendEncodeReusedBufferAllocs pins the pooled encode path: once the
// destination buffer has grown to size, re-encoding into it must not
// allocate at all (the offsets map comes from the pool, the bytes from the
// caller).
func TestAppendEncodeReusedBufferAllocs(t *testing.T) {
	msg := cacheResponse(32)
	buf := make([]byte, 0, 4<<10)
	// Warm the encoder pool outside the measured runs.
	if _, err := msg.AppendEncode(buf); err != nil {
		t.Fatalf("AppendEncode: %v", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		out, err := msg.AppendEncode(buf[:0])
		if err != nil {
			t.Fatalf("AppendEncode: %v", err)
		}
		if len(out) == 0 {
			t.Fatal("empty encode")
		}
	})
	if allocs > 0 {
		t.Errorf("AppendEncode into a sized buffer allocates %.1f times per run, want 0", allocs)
	}
}

// TestAppendEncodeMatchesEncode pins that the pooled/offset-rebased path
// produces byte-identical wire output, including behind a prefix.
func TestAppendEncodeMatchesEncode(t *testing.T) {
	msg := cacheResponse(16)
	plain, err := msg.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	prefixed, err := msg.AppendEncode([]byte{0xAA, 0xBB})
	if err != nil {
		t.Fatalf("AppendEncode: %v", err)
	}
	if string(prefixed[:2]) != "\xaa\xbb" {
		t.Fatal("prefix clobbered")
	}
	if string(prefixed[2:]) != string(plain) {
		t.Error("AppendEncode behind a prefix differs from Encode")
	}
	back, err := Decode(prefixed[2:])
	if err != nil {
		t.Fatalf("Decode of prefixed encode: %v", err)
	}
	if got := len(back.Additional); got != len(msg.Additional) {
		t.Errorf("round-trip additional count = %d, want %d", got, len(msg.Additional))
	}
}

// TestDecodeCacheResponseAllocBudget pins the decode side of a
// piggybacked lookup: the message, its three sections, one string per
// name and one array for all RDATA.
func TestDecodeCacheResponseAllocBudget(t *testing.T) {
	wire, err := cacheResponse(16).Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Decode(wire); err != nil {
			t.Fatalf("Decode: %v", err)
		}
	})
	if allocs > 8 {
		t.Errorf("decoding a 16-entry DNS-Cache response allocates %.1f times, want at most 8", allocs)
	}
}

// TestDecodeRDataCapped: records share one RDATA array, but appending to
// one record's data must not overwrite the next record's.
func TestDecodeRDataCapped(t *testing.T) {
	m := NewQuery(1, "a.example", TypeA).Reply()
	m.Answers = append(m.Answers,
		NewA("a.example", 60, IPv4{1, 2, 3, 4}),
		NewA("a.example", 60, IPv4{5, 6, 7, 8}))
	wire, err := m.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	first, second := got.Answers[0].Data, got.Answers[1].Data
	if cap(first) != len(first) {
		t.Errorf("rdata cap %d, want its length %d", cap(first), len(first))
	}
	_ = append(first, 9, 9, 9, 9)
	if string(second) != "\x05\x06\x07\x08" {
		t.Errorf("second rdata = %v after appending to the first", second)
	}
	wire[len(wire)-1] = 0xFF
	if second[3] != 8 {
		t.Error("rdata aliases the wire buffer")
	}
}

func BenchmarkEncodeCacheResponse(b *testing.B) {
	msg := cacheResponse(32)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := msg.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendEncodeCacheResponse(b *testing.B) {
	msg := cacheResponse(32)
	buf := make([]byte, 0, 4<<10)
	b.ReportAllocs()
	for b.Loop() {
		out, err := msg.AppendEncode(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		buf = out[:0]
	}
}

func BenchmarkDecodeCacheResponse(b *testing.B) {
	wire, err := cacheResponse(32).Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Decode(wire); err != nil {
			b.Fatal(err)
		}
	}
}
