package coopmesh

import (
	"testing"
	"time"

	"apecache/internal/cachepolicy"
	"apecache/internal/httplite"
	"apecache/internal/objstore"
	"apecache/internal/simnet"
	"apecache/internal/transport"
	"apecache/internal/vclock"
)

// The publisher loop must deliver monotonically-sequenced summaries over
// the simulated network, carry purge-generation bumps, and stop cleanly.
func TestPublisherLoopDeliversSummaries(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	var dir *Directory
	sim.Run("main", func() {
		net := simnet.New(sim, 1)
		net.SetLink("ap", "ctl", simnet.Path{Latency: 2 * time.Millisecond})
		dir = NewDirectory(sim)
		mux := httplite.NewMux()
		dir.Mount(mux)
		l, err := net.Node("ctl").Listen(7000)
		if err != nil {
			t.Error(err)
			return
		}
		srv := httplite.NewServer(sim, mux)
		sim.Go("ctl.http", func() { srv.Serve(l) })

		store := cachepolicy.NewStore(sim, 5<<20, 0, cachepolicy.NewPACM(), nil)
		obj := &objstore.Object{URL: "http://a.example/x", App: "t", Size: 64, TTL: time.Hour}
		if err := store.Put(obj, make([]byte, 64), 0); err != nil {
			t.Error(err)
			return
		}

		pub, err := NewPublisher(PublisherConfig{
			Env: sim, Host: net.Node("ap"), Node: "ap0",
			Addr:   transport.Addr{Host: "ap", Port: 8080},
			Target: transport.Addr{Host: "ctl", Port: 7000},
			Store:  store, Interval: time.Second,
		})
		if err != nil {
			t.Error(err)
			return
		}
		pub.Start()
		sim.Sleep(3500 * time.Millisecond)

		peers := dir.Peers()
		if len(peers) != 1 || peers[0].Node != "ap0" {
			t.Errorf("peers = %+v, want ap0", peers)
			pub.Stop()
			l.Close()
			return
		}
		if peers[0].Seq < 3 || peers[0].Entries != 1 || peers[0].Generation != 0 {
			t.Errorf("peer row = %+v, want seq>=3 entries=1 gen=0", peers[0])
		}

		// A purge bump rides the next publication.
		pub.Bump()
		if err := pub.Publish(); err != nil {
			t.Error(err)
		}
		if got := dir.Peers()[0].Generation; got != 1 {
			t.Errorf("generation after bump = %d, want 1", got)
		}

		pub.Stop()
		sim.Sleep(2 * time.Second)
		after := dir.summaries.Value()
		sim.Sleep(3 * time.Second)
		if dir.summaries.Value() != after {
			t.Errorf("publisher kept publishing after Stop: %d -> %d", after, dir.summaries.Value())
		}
		l.Close()
	})
	sim.Shutdown()
	sim.Wait()
	if err := sim.Err(); err != nil {
		t.Fatal(err)
	}
}
