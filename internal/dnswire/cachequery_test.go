package dnswire

import "testing"

func TestTraceRRRoundTrip(t *testing.T) {
	q := NewQuery(42, "video.example.com", TypeA)
	q.Additional = append(q.Additional, NewCacheRR("video.example.com", ClassCacheRequest, []CacheEntry{{Hash: 1}}))
	q.Additional = append(q.Additional, NewTraceRR("video.example.com", 0xdeadbeefcafe))

	wire, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	id, ok := got.TraceID()
	if !ok || id != 0xdeadbeefcafe {
		t.Errorf("TraceID = %x, %v", id, ok)
	}
	// The trace RR must not shadow the cache RR for flag parsing.
	rr, ok := got.FindCacheRR(ClassCacheRequest)
	if !ok {
		t.Fatal("cache RR lost")
	}
	entries, err := ParseCacheRR(rr)
	if err != nil || len(entries) != 1 || entries[0].Hash != 1 {
		t.Errorf("cache entries = %v, %v", entries, err)
	}
	if rr.Class.String() != "REQUEST" || NewTraceRR("d", 1).Class.String() != "TRACE" {
		t.Error("class mnemonics wrong")
	}
}

func TestTraceIDAbsent(t *testing.T) {
	q := NewQuery(1, "a.com", TypeA)
	if _, ok := q.TraceID(); ok {
		t.Error("TraceID found on a plain query")
	}
	q.Additional = append(q.Additional, NewTraceRR("a.com", 0))
	if _, ok := q.TraceID(); ok {
		t.Error("zero trace ID accepted")
	}
}

func BenchmarkHashURL(b *testing.B) {
	for b.Loop() {
		HashURL("http://api.movietrailer.example/thumbnail")
	}
}
