package apeclient

import (
	"errors"
	"slices"
	"testing"
	"time"

	"apecache/internal/dnswire"
	"apecache/internal/objstore"
)

type movieData struct {
	MovieID   string `cacheable:"id=http://api.movie.example/id,priority=2,ttl=30"`
	Thumbnail []byte `cacheable:"id=http://api.movie.example/thumb,priority=2,ttl=60"`
	Rating    string `cacheable:"id=http://api.movie.example/rating,priority=1,ttl=30"`
	UIState   string // not cacheable
}

func TestRegisterStructParsesTags(t *testing.T) {
	r := NewRegistry("movie")
	if err := r.RegisterStruct(&movieData{}); err != nil {
		t.Fatalf("RegisterStruct: %v", err)
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	c, ok := r.Lookup("http://api.movie.example/thumb?size=big")
	if !ok {
		t.Fatal("Lookup with params failed")
	}
	if c.Priority != objstore.PriorityHigh || c.TTL != time.Hour {
		t.Errorf("thumb = %+v", c)
	}
	if got := len(r.ByDomain("API.MOVIE.EXAMPLE")); got != 3 {
		t.Errorf("ByDomain = %d, want 3", got)
	}
}

func TestRegisterStructRejectsNonStruct(t *testing.T) {
	r := NewRegistry("x")
	if err := r.RegisterStruct(42); !errors.Is(err, ErrNotStructPtr) {
		t.Errorf("err = %v, want ErrNotStructPtr", err)
	}
	if err := r.RegisterStruct(movieData{}); !errors.Is(err, ErrNotStructPtr) {
		t.Errorf("value (non-pointer) err = %v, want ErrNotStructPtr", err)
	}
}

func TestRegisterStructRejectsTaglessStruct(t *testing.T) {
	type plain struct{ A int }
	r := NewRegistry("x")
	if err := r.RegisterStruct(&plain{}); !errors.Is(err, ErrBadTag) {
		t.Errorf("err = %v, want ErrBadTag", err)
	}
}

func TestParseTagErrors(t *testing.T) {
	cases := []string{
		"priority=2,ttl=30",                          // missing id
		"id=http://x/y,priority=nine,ttl=30",         // bad priority
		"id=http://x/y,priority=2,ttl=soon",          // bad ttl
		"id=http://x/y,priority=2,ttl=30,color=blue", // unknown key
		"justgarbage",                                // no k=v
	}
	for _, tag := range cases {
		if _, err := ParseTag(tag); !errors.Is(err, ErrBadTag) {
			t.Errorf("ParseTag(%q) err = %v, want ErrBadTag", tag, err)
		}
	}
}

func TestRegisterValidation(t *testing.T) {
	r := NewRegistry("x")
	for _, c := range []Cacheable{
		{ID: "", Priority: 1, TTL: time.Minute},
		{ID: "http://x/y", Priority: 0, TTL: time.Minute},
		{ID: "http://x/y", Priority: 3, TTL: time.Minute},
		{ID: "http://x/y", Priority: 1, TTL: 0},
	} {
		if err := r.Register(c); err == nil {
			t.Errorf("Register(%+v) succeeded, want error", c)
		}
	}
	if err := r.Register(Cacheable{ID: "http://x/y?drop=params", Priority: 2, TTL: time.Minute}); err != nil {
		t.Errorf("valid Register: %v", err)
	}
	if _, ok := r.Lookup("http://x/y"); !ok {
		t.Error("registered ID should have params stripped")
	}
}

func TestParseTagDefaultsPriorityLow(t *testing.T) {
	c, err := ParseTag("id=http://x/y,ttl=10")
	if err != nil {
		t.Fatalf("ParseTag: %v", err)
	}
	if c.Priority != objstore.PriorityLow {
		t.Errorf("Priority = %d, want low default", c.Priority)
	}
}

// TestByDomainIndex pins the domain index behind lookups: ByDomain answers
// in registration order under any spelling of the domain, re-registering
// an ID replaces its slot instead of adding one, and the request entries
// beside the declarations are the hashes the pre-index client computed per
// lookup — HashURL of each declaration's ID, in ByDomain order.
func TestByDomainIndex(t *testing.T) {
	r := NewRegistry("shop")
	ids := []string{
		"http://api.shop.example/cart",
		"http://API.Shop.Example/item?sku=1", // same domain, other spelling; params kept in the ID
		"http://img.shop.example/banner",
		"http://api.shop.example/price",
	}
	for _, id := range ids {
		if err := r.Register(Cacheable{ID: id, Priority: 1, TTL: time.Minute}); err != nil {
			t.Fatalf("Register(%s): %v", id, err)
		}
	}
	// Re-register the first ID: new attributes, same slot.
	if err := r.Register(Cacheable{ID: ids[0], Priority: 2, TTL: time.Hour}); err != nil {
		t.Fatalf("re-Register: %v", err)
	}
	if r.Len() != 4 {
		t.Errorf("Len = %d after a re-register, want 4", r.Len())
	}

	want := []Cacheable{
		{ID: ids[0], Priority: 2, TTL: time.Hour},
		{ID: ids[1], Priority: 1, TTL: time.Minute},
		{ID: ids[3], Priority: 1, TTL: time.Minute},
	}
	for _, domain := range []string{"api.shop.example", "API.SHOP.EXAMPLE."} {
		got := r.ByDomain(domain)
		if !slices.Equal(got, want) {
			t.Errorf("ByDomain(%s) = %+v, want %+v", domain, got, want)
		}
		rr := r.requestRR(domain)
		if rr.Name != "api.shop.example" || rr.Class != dnswire.ClassCacheRequest {
			t.Errorf("requestRR(%s) = %s class %d, want the canonical domain's request RR", domain, rr.Name, rr.Class)
		}
		entries, err := dnswire.ParseCacheRR(rr)
		if err != nil || len(entries) != len(want) {
			t.Fatalf("requestRR(%s) has %d entries (%v), want %d", domain, len(entries), err, len(want))
		}
		for i, c := range want {
			if entries[i] != (dnswire.CacheEntry{Hash: dnswire.HashURL(c.ID)}) {
				t.Errorf("requestRR(%s) entry %d = %+v, want the unflagged hash of %s", domain, i, entries[i], c.ID)
			}
		}
	}
	if got := r.ByDomain("img.shop.example"); len(got) != 1 || got[0].ID != ids[2] {
		t.Errorf("ByDomain(img) = %+v", got)
	}
	if r.ByDomain("other.example") != nil || r.requestRR("other.example").Data != nil {
		t.Error("unregistered domain should have no batch")
	}
}
