//go:build !race

// Allocation budgets count heap bytes, which the race detector changes (its
// sync.Pool drops items at random), so this file is left out of -race
// builds.

package realnet

import (
	"runtime"
	"testing"
	"time"
)

// TestUDPReadAllocBudget pins the pooled receive path: one datagram
// exchange (WriteTo + ReadFromTimeout) costs the heap its payload plus a
// small constant for the sender's address, not a 64 KiB buffer per read.
func TestUDPReadAllocBudget(t *testing.T) {
	srv, cli := packetPair(t)

	for _, size := range []int{200, 2400} {
		payload := make([]byte, size)
		exchange := func() {
			if err := cli.WriteTo(payload, srv.Addr()); err != nil {
				t.Fatalf("WriteTo: %v", err)
			}
			pkt, err := srv.ReadFromTimeout(2 * time.Second)
			if err != nil || len(pkt.Payload) != size {
				t.Fatalf("read %d bytes, %v; want %d", len(pkt.Payload), err, size)
			}
		}
		exchange() // fill the pool
		const rounds = 500
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range rounds {
			exchange()
		}
		runtime.ReadMemStats(&after)
		perRead := float64(after.TotalAlloc-before.TotalAlloc) / rounds
		if budget := float64(size + 512); perRead > budget {
			t.Errorf("%d-byte datagram: %.0f heap bytes per read, budget %.0f", size, perRead, budget)
		}
	}
}
