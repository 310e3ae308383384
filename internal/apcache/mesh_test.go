package apcache

import (
	"encoding/json"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apecache/internal/coherence"
	"apecache/internal/controlplane"
	"apecache/internal/httplite"
	"apecache/internal/objstore"
	"apecache/internal/realnet"
	"apecache/internal/simnet"
	"apecache/internal/transport"
	"apecache/internal/vclock"
)

// meshFixture wires two APs and a control plane on one LAN,
// with the edge a long uplink away.
type meshFixture struct {
	sim  *vclock.Sim
	net  *simnet.Network
	ctl  *controlplane.Server
	aps  []*AP
	obj  *objstore.Object
	edge transport.Addr
}

func newMeshFixture(t *testing.T, sim *vclock.Sim) *meshFixture {
	t.Helper()
	net := simnet.New(sim, 3)
	lan := simnet.Path{Latency: 1500 * time.Microsecond}
	for _, ap := range []string{"ap0", "ap1"} {
		net.SetLink("client", ap, simnet.Path{Latency: time.Millisecond})
		net.SetLink(ap, "ctl", simnet.Path{Latency: 2 * time.Millisecond})
		net.SetLink(ap, "edge", simnet.Path{Latency: 12 * time.Millisecond})
	}
	net.SetLink("ap0", "ap1", lan)
	net.SetLink("edge", "origin", simnet.Path{Latency: 25 * time.Millisecond})

	obj := &objstore.Object{URL: "http://api.t.example/shared", App: "t", Size: 8 << 10,
		TTL: 30 * time.Minute, Priority: 2, OriginDelay: 5 * time.Millisecond}
	catalog := objstore.NewCatalog(obj)
	origin := objstore.NewOriginServer(sim, catalog)
	if _, err := origin.Run(net.Node("origin"), 80); err != nil {
		t.Fatalf("origin: %v", err)
	}
	edge := objstore.NewEdgeCacheServer(sim, net.Node("edge"), catalog, transport.Addr{Host: "origin", Port: 80})
	edge.Prepopulate()
	if _, err := edge.Run(net.Node("edge"), 80); err != nil {
		t.Fatalf("edge: %v", err)
	}

	ctl := controlplane.New(sim, net.Node("ctl"), nil, controlplane.FleetConfig{})
	if err := ctl.Start(0); err != nil {
		t.Fatalf("control plane: %v", err)
	}

	f := &meshFixture{sim: sim, net: net, ctl: ctl, obj: obj,
		edge: transport.Addr{Host: "edge", Port: 80}}
	for _, name := range []string{"ap0", "ap1"} {
		ap := New(Config{
			Env:           sim,
			Host:          net.Node(name),
			EdgeAddr:      f.edge,
			CacheCapacity: 5 << 20,
			NodeName:      name,
			MeshAddr:      ctl.Addr(),
			MeshInterval:  time.Second,
		})
		if err := ap.Start(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		f.aps = append(f.aps, ap)
	}
	return f
}

func (f *meshFixture) stop() {
	for _, ap := range f.aps {
		ap.Stop()
	}
	f.ctl.Stop()
}

// delegate issues one client delegation against AP i and returns the
// response.
func (f *meshFixture) delegate(t *testing.T, i int, target string) *httplite.Response {
	t.Helper()
	client := httplite.NewClient(f.net.Node("client"))
	req := httplite.NewRequest("POST", f.aps[i].HTTPAddr().Host, "/delegate")
	req.Body = []byte(target)
	req.Set("X-Ape-TTL", "30")
	req.Set("X-Ape-App", "t")
	resp, err := client.Do(f.aps[i].HTTPAddr(), req)
	if err != nil {
		t.Fatalf("delegate via ap%d: %v", i, err)
	}
	return resp
}

// A miss at one AP whose neighbour already holds the object must be
// served over the mesh: the peer tier fills from the LAN, the local
// cache keeps the copy, and no edge delegation happens.
func TestPeerFetchServesFromMesh(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() {
		f := newMeshFixture(t, sim)
		defer f.stop()

		// Warm ap1 from the edge, then wait out a summary interval so the
		// directory has ap1's publication.
		if resp := f.delegate(t, 1, f.obj.URL); resp.Status != 200 || resp.Get("X-Ape-Source") != "ap-delegate" {
			t.Errorf("warm-up delegation: status %d source %s", resp.Status, resp.Get("X-Ape-Source"))
			return
		}
		sim.Sleep(2500 * time.Millisecond)

		resp := f.delegate(t, 0, f.obj.URL)
		if resp.Status != 200 {
			t.Errorf("peer-tier delegation: status %d", resp.Status)
			return
		}
		if got := resp.Get("X-Ape-Source"); got != "ap-peer" {
			t.Errorf("X-Ape-Source = %q, want ap-peer", got)
		}

		s := f.aps[0].Snapshot()
		if s.PeerHits != 1 || s.PeerBytes != int64(f.obj.Size) {
			t.Errorf("ap0 peer counters = %d hits / %d bytes, want 1 / %d", s.PeerHits, s.PeerBytes, f.obj.Size)
		}
		if s.Delegations != 0 || s.DelegationBytes != 0 {
			t.Errorf("ap0 went to the edge anyway: %d delegations / %d bytes", s.Delegations, s.DelegationBytes)
		}
		if s.Mesh == "off" {
			t.Errorf("status reports mesh off")
		}
		if f.aps[1].Snapshot().PeerHits != 0 {
			t.Errorf("serving peer counted a peer hit of its own")
		}

		// The peer fill is a real fill: the next local fetch is a cache hit.
		client := httplite.NewClient(f.net.Node("client"))
		hit, err := client.Get(f.aps[0].HTTPAddr(), f.aps[0].HTTPAddr().Host,
			"/cache?u="+url.QueryEscape(f.obj.URL))
		if err != nil || hit.Status != 200 || hit.Get("X-Ape-Source") != "ap-cache" {
			t.Errorf("post-peer-fill local fetch: %v status %d source %s", err, hit.Status, hit.Get("X-Ape-Source"))
		}
		if hit.Get("ETag") != "" || hit.Get("X-Ape-Fresh-Ms") != "" {
			t.Errorf("client serve leaked peer-only headers: ETag=%q Fresh=%q", hit.Get("ETag"), hit.Get("X-Ape-Fresh-Ms"))
		}
	})
	sim.Shutdown()
	sim.Wait()
	if err := sim.Err(); err != nil {
		t.Fatal(err)
	}
}

// A directory claim that no longer holds (the peer evicted the object
// after publishing) must fall back to the edge and count the wasted
// round trip.
func TestPeerMissFallsBackToEdge(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() {
		f := newMeshFixture(t, sim)
		defer f.stop()

		if resp := f.delegate(t, 1, f.obj.URL); resp.Status != 200 {
			t.Errorf("warm-up: status %d", resp.Status)
			return
		}
		sim.Sleep(2500 * time.Millisecond)
		// Evict behind the directory's back: the summary still claims it.
		f.aps[1].Store().Purge(f.obj.URL, 99, false, false)

		resp := f.delegate(t, 0, f.obj.URL)
		if resp.Status != 200 {
			t.Errorf("fallback delegation: status %d", resp.Status)
			return
		}
		if got := resp.Get("X-Ape-Source"); got != "ap-delegate" {
			t.Errorf("X-Ape-Source = %q, want ap-delegate (edge fallback)", got)
		}
		s := f.aps[0].Snapshot()
		if s.PeerHits != 0 || s.PeerFallbacks != 1 {
			t.Errorf("ap0 = %d peer hits / %d fallbacks, want 0 / 1", s.PeerHits, s.PeerFallbacks)
		}
		if s.Delegations != 1 {
			t.Errorf("edge delegations = %d, want 1", s.Delegations)
		}
	})
	sim.Shutdown()
	sim.Wait()
	if err := sim.Err(); err != nil {
		t.Fatal(err)
	}
}

// A bus purge reaching a mesh AP must bump the summary generation so the
// next publication supersedes the pre-purge claim.
func TestPurgeBumpsSummaryGeneration(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() {
		f := newMeshFixture(t, sim)
		defer f.stop()
		if got := f.aps[1].mesh.publisher.Generation(); got != 0 {
			t.Errorf("initial generation = %d", got)
			return
		}
		msg := coherence.Msg{URL: f.obj.URL, Version: 2}
		body, err := json.Marshal(msg.Canonical())
		if err != nil {
			t.Error(err)
			return
		}
		client := httplite.NewClient(f.net.Node("client"))
		req := httplite.NewRequest("POST", f.aps[1].HTTPAddr().Host, coherence.DefaultPurgePath)
		req.Body = body
		resp, err := client.Do(f.aps[1].HTTPAddr(), req)
		if err != nil || resp.Status != 200 {
			t.Errorf("purge post: %v status %d", err, resp.Status)
			return
		}
		if got := f.aps[1].mesh.publisher.Generation(); got != 1 {
			t.Errorf("generation after purge = %d, want 1", got)
		}
	})
	sim.Shutdown()
	sim.Wait()
	if err := sim.Err(); err != nil {
		t.Fatal(err)
	}
}

// Delegation singleflight under real concurrency: N goroutines racing on
// one cold URL must produce exactly one leader (one upstream fetch);
// every follower serves the leader's freshly cached bytes. Run with
// -race in CI.
func TestDelegationSingleflightRace(t *testing.T) {
	env := &vclock.Real{}
	ap := New(Config{
		Env:           env,
		Host:          realnet.NewHost("127.0.0.1"),
		EdgeAddr:      transport.Addr{Host: "127.0.0.1", Port: 1}, // never dialed
		CacheCapacity: 1 << 20,
	})
	const (
		workers = 32
		target  = "http://api.t.example/cold"
	)
	payload := []byte("fetched-once")

	var leaders, followers atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, lead := ap.fetches.join(target, false)
			if lead {
				// Leader: simulate the upstream fetch, then publish.
				leaders.Add(1)
				time.Sleep(20 * time.Millisecond)
				obj := &objstore.Object{URL: target, App: "t", Size: len(payload),
					TTL: 30 * time.Minute, Priority: objstore.PriorityLow}
				if err := ap.store.Put(obj, payload, 0); err != nil {
					t.Errorf("leader put: %v", err)
				}
				ap.fetches.land(target)
				return
			}
			body, ok := ap.awaitDelegation(f, target)
			if !ok {
				t.Errorf("follower found no cached copy after the leader landed")
				return
			}
			followers.Add(1)
			if string(body) != string(payload) {
				t.Errorf("follower got %q, want %q", body, payload)
			}
		}()
	}
	wg.Wait()
	if got := leaders.Load(); got != 1 {
		t.Fatalf("leaders = %d, want exactly 1 upstream fetch", got)
	}
	if got := followers.Load(); got != workers-1 {
		t.Fatalf("followers = %d, want %d", got, workers-1)
	}
}
