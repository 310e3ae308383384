//go:build !race

// Allocation budgets count heap allocations, which the race detector
// changes (its sync.Pool drops items at random), so this file is left out
// of -race builds.

package httplite

import (
	"io"
	"net/url"
	"testing"
)

// TestWriteHeadAllocFree: building and writing a head allocates nothing
// once the head buffer pool is warm.
func TestWriteHeadAllocFree(t *testing.T) {
	req := NewRequest("GET", "ap", "/cache?u=http%3A%2F%2Fapi.example%2Fobj&app=demo")
	req.Set("X-Ape-App", "demo")
	resp := NewResponse(200, make([]byte, 2<<10))
	resp.Set("X-Ape-Source", "ap-cache")
	for name, write := range map[string]func() error{
		"WriteRequest":  func() error { return WriteRequest(io.Discard, req) },
		"WriteResponse": func() error { return WriteResponse(io.Discard, resp) },
	} {
		if err := write(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = write() }); allocs > 0 {
			t.Errorf("%s allocates %.1f times per message, want 0", name, allocs)
		}
	}
}

// TestMuxRouteAllocFree: routing a request to a handler that allocates
// nothing allocates nothing.
func TestMuxRouteAllocFree(t *testing.T) {
	canned := NewResponse(200, nil)
	h := HandlerFunc(func(*Request) *Response { return canned })
	mux := NewMux()
	for _, prefix := range []string{"/", "/cache", "/delegate", "/status", "/explain", "/_coherence/", "/metrics", "/debug/"} {
		mux.Handle(prefix, h)
	}
	req := NewRequest("GET", "ap", "/cache?u=http%3A%2F%2Fapi.example%2Fobj&app=demo")
	if mux.ServeHTTP(req) != canned {
		t.Fatal("request not routed")
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = mux.ServeHTTP(req) }); allocs > 0 {
		t.Errorf("Mux.ServeHTTP allocates %.1f times per request, want 0", allocs)
	}
}

// TestQueryParamsAllocBudget: parsing a /cache hit's query string costs
// the result map and the unescaped URL, not url.Values besides.
func TestQueryParamsAllocBudget(t *testing.T) {
	path := "/cache?u=" + url.QueryEscape("http://api.movie.example/clip/3") + "&app=movie"
	if got := QueryParams(path); got["u"] != "http://api.movie.example/clip/3" || got["app"] != "movie" {
		t.Fatalf("QueryParams(%q) = %q", path, got)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = QueryParams(path) }); allocs > 3 {
		t.Errorf("QueryParams allocates %.1f times per /cache path, want at most 3", allocs)
	}
}
