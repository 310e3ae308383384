package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/url"
	"os"
	"strings"
	"testing"
	"time"

	"apecache"
	"apecache/internal/apcache"
	"apecache/internal/cachepolicy"
	"apecache/internal/coherence"
	"apecache/internal/controlplane"
	"apecache/internal/coopmesh"
	"apecache/internal/httplite"
	"apecache/internal/objstore"
	"apecache/internal/telemetry"
	"apecache/internal/transport"
)

var testObj = &objstore.Object{URL: "http://api.ctl.example/obj0", App: "ctl", Size: 2 << 10,
	TTL: 10 * time.Minute, Priority: objstore.PriorityHigh}

// startEdged serves on loopback what edged -fleet-port serves, wired as
// edged wires it: an origin, the edge behind the coherence hub, and the
// control plane, whose mesh directory the hub's purge callback
// tombstones. It returns the hub (edge) address and the control plane.
func startEdged(t *testing.T) (transport.Addr, *controlplane.Server) {
	t.Helper()
	env := apecache.RealEnv()
	host := apecache.NewRealHost("127.0.0.1")
	catalog := objstore.NewCatalog(testObj)
	origin := objstore.NewOriginServer(env, catalog)
	originL, err := origin.Run(host, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { originL.Close() })
	edge := objstore.NewEdgeCacheServer(env, host, catalog, originL.Addr())
	cp := controlplane.New(env, host, telemetry.New(env), controlplane.FleetConfig{})
	hub := coherence.NewHub(env, host, func(m coherence.Msg) {
		edge.Invalidate(m.URL)
		cp.Mesh().Purge(m.URL)
	})
	edgeL, err := host.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { edgeL.Close() })
	edgeSrv := httplite.NewServer(env, hub.Wrap(edge))
	env.Go("edge", func() { edgeSrv.Serve(edgeL) })
	if err := cp.Start(freePort(t)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cp.Stop)
	return edgeL.Addr(), cp
}

// TestViews serves the daemons' real handlers on loopback — edged's
// origin, edge, coherence hub and control plane, and an AP with the
// decision ledger — and runs every apectl view against them, checking
// that each decodes its endpoint and prints the key fields.
func TestViews(t *testing.T) {
	env := apecache.RealEnv()
	host := apecache.NewRealHost("127.0.0.1")
	obj := testObj
	hubAddr, ctl := startEdged(t)

	var ap *apcache.AP
	for attempt := 0; ap == nil; attempt++ {
		a := apcache.New(apcache.Config{
			Env: env, Host: host,
			EdgeAddr:      hubAddr,
			CacheCapacity: 1 << 20,
			Rng:           rand.New(rand.NewSource(1)),
			DNSPort:       freePort(t),
			HTTPPort:      freePort(t),
			Coherence:     coherence.ModeSWR,
			DecisionLog:   true,
		})
		if err := a.Start(); err == nil {
			ap = a
		} else if attempt == 8 {
			t.Fatal(err)
		}
	}
	defer ap.Stop()
	apAddr := ap.HTTPAddr().String()

	// One traced delegation gives every view something to show.
	client := httplite.NewClient(host)
	req := httplite.NewRequest("POST", "127.0.0.1", "/delegate")
	req.Body = []byte(obj.URL)
	req.Set("X-Ape-TTL", "10")
	req.Set("X-Ape-App", obj.App)
	req.Set(telemetry.TraceHeader, telemetry.TraceID(0xab).String())
	if resp, err := client.Do(ap.HTTPAddr(), req); err != nil || resp.Status != 200 {
		t.Fatalf("delegate: %v %v", resp, err)
	}
	if err := ctl.Fleet().Ingest(ap.Telemetry().BuildSnapshot("ap:test", 1, 16)); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Mesh().Ingest(coopmesh.BuildSummary("ap:test", ap.HTTPAddr(), ap.Store(), 1, 1)); err != nil {
		t.Fatal(err)
	}
	ctlAddr := ctl.Addr().String()

	for _, v := range []struct {
		name string
		run  func() error
		want []string
	}{
		{"status", func() error { return runStatus(apAddr, false) },
			[]string{"policy PACM", "cache:  1 objects", "1 insertions", "1 delegations (2 KB)", "mesh:   off", "coherence: stale-while-revalidate"}},
		{"explain", func() error { return runExplain([]string{"-ap", apAddr, obj.URL}) },
			[]string{obj.URL, "flag:   Cache-Hit — resident", "PACM:", "admit", "miss attribution (1 total)"}},
		{"trace index", func() error { return runTrace([]string{"-addr", apAddr}) },
			[]string{"TRACE", "00000000000000ab  1"}},
		{"trace", func() error { return runTrace([]string{"-addr", apAddr, "00000000000000ab"}) },
			[]string{"trace 00000000000000ab — 1 spans", "delegation", "ap:127.0.0.1"}},
		{"fleet", func() error { return runFleet([]string{"-addr", ctlAddr}) },
			[]string{"1 nodes", "ap:test", "apcache_delegation_seconds", "exemplar 00000000000000ab", "cold"}},
		{"alerts", func() error { return runAlerts([]string{"-addr", ctlAddr}) },
			[]string{"SLO", "cached-hit-p99      ap:test             ok"}},
		{"peers", func() error { return runPeers([]string{"-addr", ctlAddr}) },
			[]string{"ap:test", ap.HTTPAddr().String()}},
		{"purge", func() error {
			return runPurge([]string{"-hub", hubAddr.String(), "-url", obj.URL, "-version", "2"})
		}, []string{"published"}},
		{"bus", func() error { return runBus([]string{"-hub", hubAddr.String()}) },
			[]string{"subscribers   1", "published     1", "relayed       1", "fan-out       legacy"}},
	} {
		out := capture(t, v.run)
		for _, w := range v.want {
			if !strings.Contains(out, w) {
				t.Errorf("%s: output lacks %q:\n%s", v.name, w, out)
			}
		}
	}
}

// TestHubPurgeTombstonesMesh checks edged's purge wiring: once a purge
// is published at the hub, /mesh/lookup stops offering a peer whose
// summary predates it.
func TestHubPurgeTombstonesMesh(t *testing.T) {
	hubAddr, cp := startEdged(t)
	env := apecache.RealEnv()
	store := cachepolicy.NewStore(env, 1<<20, 0, cachepolicy.NewLRU(), nil)
	if err := store.Put(testObj, make([]byte, testObj.Size), 0); err != nil {
		t.Fatal(err)
	}
	peer := transport.Addr{Host: "127.0.0.1", Port: 9}
	if err := cp.Mesh().Ingest(coopmesh.BuildSummary("ap:peer", peer, store, 1, 1)); err != nil {
		t.Fatal(err)
	}
	lookup := func() []coopmesh.Candidate {
		t.Helper()
		body, err := fetch(cp.Addr().String(), coopmesh.PathLookup+"?u="+url.QueryEscape(testObj.URL)+"&from=ap:other")
		if err != nil {
			t.Fatal(err)
		}
		var cands []coopmesh.Candidate
		if err := json.Unmarshal(body, &cands); err != nil {
			t.Fatal(err)
		}
		return cands
	}
	if got := lookup(); len(got) != 1 || got[0].Node != "ap:peer" {
		t.Fatalf("lookup before the purge = %+v, want ap:peer", got)
	}
	client := httplite.NewClient(apecache.NewRealHost("127.0.0.1"))
	if err := coherence.Publish(client, hubAddr, coherence.Msg{URL: testObj.URL, Version: 2}); err != nil {
		t.Fatal(err)
	}
	if got := lookup(); len(got) != 0 {
		t.Errorf("lookup after the purge = %+v, want no peer: the summary predates the purge", got)
	}
}

// capture runs fn with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	printed := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- string(b)
	}()
	err = fn()
	os.Stdout = stdout
	w.Close()
	out := <-printed
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	return out
}

// freePort returns a loopback port free for both TCP and UDP when
// probed; a caller that loses it to another process retries.
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
