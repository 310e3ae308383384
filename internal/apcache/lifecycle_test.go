package apcache

import (
	"fmt"
	"net"
	"testing"
	"time"

	"apecache/internal/coherence"
	"apecache/internal/httplite"
	"apecache/internal/realnet"
	"apecache/internal/simnet"
	"apecache/internal/transport"
	"apecache/internal/vclock"
)

// TestStopWaitsForSweeperUnderRealClock: on the wall clock, Stop wakes
// the sweeper instead of leaving it asleep for DefaultSweepInterval, so
// every task the AP spawned has returned moments after Stop.
func TestStopWaitsForSweeperUnderRealClock(t *testing.T) {
	env := &vclock.Real{}
	var ap *AP
	for attempt := 0; ap == nil; attempt++ {
		a := New(Config{
			Env:           env,
			Host:          realnet.NewHost("127.0.0.1"),
			EdgeAddr:      transport.Addr{Host: "127.0.0.1", Port: 1}, // never dialed
			CacheCapacity: 1 << 20,
			DNSPort:       freePort(t),
			HTTPPort:      freePort(t),
		})
		if err := a.Start(); err == nil {
			ap = a
		} else if attempt == 8 {
			t.Fatal(err)
		}
	}
	ap.Stop()
	done := make(chan struct{})
	go func() {
		env.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("tasks still running 2s after Stop")
	}
}

// freePort returns a loopback port that was free for both TCP and UDP
// when probed; a caller that loses it to another process retries.
func freePort(t *testing.T) uint16 {
	t.Helper()
	for {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		port := l.Addr().(*net.TCPAddr).Port
		l.Close()
		pc, err := net.ListenPacket("udp", fmt.Sprintf("127.0.0.1:%d", port))
		if err != nil {
			continue
		}
		pc.Close()
		return uint16(port)
	}
}

// concurrentDelegations sends n simultaneous /delegate requests for u
// and returns each response's status and virtual arrival time.
func concurrentDelegations(fx *cohFixture, u string, n int) (status []int, at []time.Time) {
	status, at = make([]int, n), make([]time.Time, n)
	clients := vclock.NewGroup(fx.sim)
	for i := range n {
		clients.Go("test.client", func() {
			c := httplite.NewClient(fx.net.Node("client"))
			req := httplite.NewRequest("POST", "ap", "/delegate")
			req.Body = []byte(u)
			req.Set("X-Ape-TTL", "30")
			req.Set("X-Ape-App", "t")
			if resp, err := c.Do(fx.ap.HTTPAddr(), req); err == nil {
				status[i] = resp.Status
			}
			at[i] = fx.sim.Now()
		})
	}
	clients.Wait()
	return status, at
}

// TestDelegationFollowerWakesWhenLeaderLands: a follower parks on the
// leader's flight and answers at the instant the leader's edge fetch
// lands. The edge RTT (6.6 ms) is no multiple of 2 ms, so a follower
// polling on a 2 ms period would answer later than its leader.
func TestDelegationFollowerWakesWhenLeaderLands(t *testing.T) {
	runCoh(t, coherence.ModeOff, func(fx *cohFixture) {
		fx.net.SetLink("ap", "edge", simnet.Path{Latency: 3300 * time.Microsecond})
		status, at := concurrentDelegations(fx, fx.obj.URL, 2)
		if status[0] != 200 || status[1] != 200 {
			t.Errorf("statuses = %v, want both 200", status)
		}
		if n := fx.edgeLookups(); n != 1 {
			t.Errorf("edge saw %v requests, want 1 (singleflight)", n)
		}
		if !at[0].Equal(at[1]) {
			t.Errorf("follower answered %v after its leader, want the same instant", at[1].Sub(at[0]))
		}
	})
}

// TestDelegationFollowerFetchesAfterLeaderFails: when the leader's edge
// fetch fails, the follower wakes as it lands, finds nothing in the
// store and fetches on its own.
func TestDelegationFollowerFetchesAfterLeaderFails(t *testing.T) {
	runCoh(t, coherence.ModeOff, func(fx *cohFixture) {
		status, at := concurrentDelegations(fx, "http://api.t.example/missing", 2)
		if status[0] != 404 || status[1] != 404 {
			t.Errorf("statuses = %v, want both 404 from the edge", status)
		}
		if n := fx.ap.Telemetry().Metrics.Expand()["apcache_delegation_errors_total"]; n != 2 {
			t.Errorf("failed edge fetches = %v, want 2 (leader, then follower on its own)", n)
		}
		if !at[1].After(at[0]) {
			t.Errorf("follower answered at %v, leader at %v: want the follower one edge fetch later", at[1], at[0])
		}
	})
}
