//go:build !race

package apeclient

import (
	"fmt"
	"testing"
	"time"
)

// TestRequestEntriesAllocFree pins the domain index on the lookup path:
// fetching the request batch of a 256-URL app costs no allocation (before
// the index it scanned and re-hashed every declaration per lookup).
func TestRequestEntriesAllocFree(t *testing.T) {
	r := NewRegistry("big")
	for i := range 256 {
		id := fmt.Sprintf("http://api.big.example/obj/%d", i)
		if err := r.Register(Cacheable{ID: id, Priority: 1, TTL: time.Minute}); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if n := len(r.requestEntries("api.big.example")); n != 256 {
			t.Fatalf("requestEntries = %d entries, want 256", n)
		}
	})
	if allocs != 0 {
		t.Errorf("requestEntries allocates %.0f times per lookup, want 0", allocs)
	}
}
