package testbed

import (
	"fmt"
	"math/rand"
	"net/url"
	"os"
	"strings"
	"testing"
	"time"

	"apecache/internal/apcache"
	"apecache/internal/coherence"
	"apecache/internal/controlplane"
	"apecache/internal/httplite"
	"apecache/internal/objstore"
	"apecache/internal/simnet"
	"apecache/internal/telemetry"
	"apecache/internal/transport"
	"apecache/internal/vclock"
	"apecache/internal/wicache"
)

const catalogGolden = "testdata/metric_catalog.golden"

// TestMetricCatalogGolden pins the telemetry surface every daemon
// exposes: each registry's Prometheus text, the APs' /status bodies, the
// hub's /_coherence/stats and the control plane's /fleet, after one fixed
// simulated scenario that drives every instrumented component. A change
// that is meant to leave the instruments alone (names, labels, help
// text, values) must leave the rendering byte-identical. Families kept
// off the snapshot wire (Registry.SetLocal: wall-clock values) are
// pinned by their HELP and TYPE lines only.
func TestMetricCatalogGolden(t *testing.T) {
	got := catalogRun(t)
	want, err := os.ReadFile(catalogGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("catalog differs from %s at line %d:\n got: %q\nwant: %q", catalogGolden, i+1, g, w)
			break
		}
	}
	t.Logf("full rendering:\n%s", got)
}

// catalogRun builds the catalogue topology — origin, edge, a
// dispatching hub and the control plane, wired as edged wires them (the
// hub's purge callback tombstones the mesh directory), a Wi-Cache
// controller sharing the control plane's node and bundle, a Wi-Cache AP,
// two APs with the mesh and the decision ledger on and one with both
// off — drives the scenario and renders every pinned surface.
func catalogRun(t *testing.T) string {
	t.Helper()
	var out strings.Builder
	err := vclock.Simulate("catalog", func(sim *vclock.Sim) error {
		// Runs last, after every deferred Stop below.
		defer func() {
			if live := sim.Live(true); len(live) > 0 {
				t.Errorf("tasks outlived Stop: %v", live)
			}
		}()
		net := simnet.New(sim, 5)
		net.SetDefaultPath(simnet.Path{Latency: 4 * time.Millisecond, Hops: 3, Bandwidth: 40 << 20})
		net.SetLink("ap-a", "ap-b", simnet.Path{Latency: time.Millisecond, Hops: 1, Bandwidth: 100 << 20})
		net.SetLink("edge", "origin", simnet.Path{Latency: 20 * time.Millisecond, Hops: 10, Bandwidth: 100 << 20})
		for _, ap := range []string{"ap-a", "ap-b", "ap-c", "wi-ap"} {
			net.SetLink(ap, "edge", simnet.Path{Latency: 12 * time.Millisecond, Hops: 7, Bandwidth: 18 << 20})
		}
		const domain = "http://api.catalog.example/"
		var objs []*objstore.Object
		for i := 0; i < 4; i++ {
			objs = append(objs, &objstore.Object{URL: fmt.Sprintf("%sobj%d", domain, i), App: "catalog",
				Size: (i + 1) << 10, TTL: 10 * time.Minute, Priority: objstore.PriorityHigh,
				OriginDelay: 20 * time.Millisecond})
		}
		catalog := objstore.NewCatalog(objs...)

		edgeTel := telemetry.New(sim)
		origin := objstore.NewOriginServer(sim, catalog)
		origin.Instrument(edgeTel)
		if _, err := origin.Run(net.Node("origin"), 80); err != nil {
			return err
		}
		edge := objstore.NewEdgeCacheServer(sim, net.Node("edge"), catalog, transport.Addr{Host: "origin", Port: 80})
		edge.Instrument(edgeTel)
		edge.Prepopulate()
		edge.Invalidate(objs[3].URL) // one cold object: the edge fills it from the origin
		ctlTel := telemetry.New(sim)
		cp := controlplane.New(sim, net.Node("ctl"), ctlTel, controlplane.FleetConfig{SnapshotInterval: fleetSnapshotInterval})
		hub := coherence.NewHub(sim, net.Node("edge"), func(m coherence.Msg) {
			edge.Invalidate(m.URL)
			cp.Mesh().Purge(m.URL)
		})
		hub.Instrument(edgeTel)
		dispatch := hub.EnableDispatch(coherence.DispatchConfig{Shards: 4})
		defer dispatch.Stop()
		edgeL, err := net.Node("edge").Listen(80)
		if err != nil {
			return err
		}
		mux := httplite.NewMux()
		edgeTel.Register(mux)
		mux.Handle("/", hub.Wrap(edge))
		edgeSrv := httplite.NewServer(sim, mux)
		sim.Go("edge.server", func() { edgeSrv.Serve(edgeL) })
		edgeAddr := transport.Addr{Host: "edge", Port: 80}

		if err := cp.Start(0); err != nil {
			return err
		}
		defer cp.Stop()
		// The Wi-Cache controller shares the control plane's node, on the
		// port beside it.
		ctl := wicache.NewController(sim, net.Node("ctl"))
		ctl.Instrument(ctlTel)
		if err := ctl.Start(controlplane.DefaultPort + 1); err != nil {
			return err
		}
		defer ctl.Stop()
		if err := ctl.SubscribeBus(edgeAddr); err != nil {
			return err
		}

		wiTel := telemetry.New(sim)
		wiAP := wicache.NewAPServer(sim, net.Node("wi-ap"), "wi-ap", 1<<20, edgeAddr, ctl.Addr())
		wiAP.Instrument(wiTel)
		if err := wiAP.Start(0); err != nil {
			return err
		}
		defer wiAP.Stop()
		ctl.RegisterAP("wi-ap", wiAP.Addr(), wiAP.Addr())

		names := []string{"ap-a", "ap-b", "ap-c"}
		aps := make([]*apcache.AP, len(names))
		tels := make([]*telemetry.Telemetry, len(names))
		for i, name := range names {
			full := name != "ap-c"
			tels[i] = telemetry.New(sim)
			cfg := apcache.Config{
				Env: sim, Host: net.Node(name),
				EdgeAddr:         edgeAddr,
				CacheCapacity:    1 << 20,
				Rng:              rand.New(rand.NewSource(int64(i) + 1)),
				HTTPProcessing:   900 * time.Microsecond,
				Coherence:        coherence.ModeInvalidate,
				Telemetry:        tels[i],
				FleetAddr:        cp.Addr(),
				SnapshotInterval: fleetSnapshotInterval,
				NodeName:         name,
			}
			if full {
				cfg.Coherence = coherence.ModeSWR
				cfg.MeshAddr = cp.Addr()
				cfg.MeshInterval = time.Second
				cfg.DecisionLog = true
			}
			aps[i] = apcache.New(cfg)
			if err := aps[i].Start(); err != nil {
				return err
			}
			defer aps[i].Stop()
		}

		// get fetches one object through an AP the way the cluster
		// clients do: /cache, then /delegate on a miss, carrying an
		// optional X-Ape-Prefetch hint.
		get := func(ap *apcache.AP, client, u, prefetch string) {
			http := httplite.NewClient(net.Node(client))
			addr := ap.HTTPAddr()
			resp, err := http.Get(addr, addr.Host, "/cache?u="+url.QueryEscape(u)+"&app=catalog")
			if err == nil && resp.Status == 200 {
				return
			}
			req := httplite.NewRequest("POST", addr.Host, "/delegate")
			req.Body = []byte(u)
			req.Set("X-Ape-TTL", "10")
			req.Set("X-Ape-App", "catalog")
			req.Set("X-Ape-Priority", "2")
			if prefetch != "" {
				req.Set("X-Ape-Prefetch", prefetch)
			}
			_, _ = http.Do(addr, req)
		}
		publisher := httplite.NewClient(net.Node("origin"))
		purge := func(o *objstore.Object) error {
			v, _ := catalog.Mutate(o.URL)
			return coherence.Publish(publisher, edgeAddr, coherence.Msg{URL: o.URL, Version: v})
		}

		// Fills: ap-b and ap-c delegate, ap-b's summary reaches the
		// directory, then ap-a's misses go to its mesh peer first.
		get(aps[1], "client-b", objs[0].URL, "")
		get(aps[1], "client-b", objs[1].URL, "")
		get(aps[2], "client-c", objs[0].URL, "")
		get(aps[2], "client-c", objs[3].URL, objs[2].URL+";ttl=10")
		sim.Sleep(2 * time.Second)
		get(aps[0], "client-a", objs[0].URL, "")
		get(aps[0], "client-a", objs[2].URL, "")
		get(aps[0], "client-a", objs[0].URL, "")

		// Wi-Cache: a locate miss orders a fill, the next locate hits.
		wc := wicache.NewClient(sim, net.Node("wi-client"), "catalog", ctl.Addr(), edgeAddr)
		wc.SetHomeAP("wi-ap")
		wc.Declare(objs[1].URL, 10*time.Minute, objstore.PriorityHigh)
		if _, err := wc.Get(objs[1].URL); err != nil {
			return err
		}
		sim.Sleep(time.Second)
		if _, err := wc.Get(objs[1].URL); err != nil {
			return err
		}

		// Purges: SWR APs serve stale and revalidate, the invalidating AP
		// evicts, the hub tombstones the directory and the Wi-Cache
		// controller relays to its AP.
		if err := purge(objs[0]); err != nil {
			return err
		}
		if err := purge(objs[1]); err != nil {
			return err
		}
		sim.Sleep(50 * time.Millisecond)
		get(aps[0], "client-a", objs[0].URL, "")
		get(aps[2], "client-c", objs[0].URL, "")
		sim.Sleep(2 * fleetSnapshotInterval)

		for i, name := range names {
			writeRegistry(&out, name, tels[i])
		}
		writeRegistry(&out, "edge", edgeTel)
		writeRegistry(&out, "controller", ctlTel)
		writeRegistry(&out, "wi-ap", wiTel)
		http := httplite.NewClient(net.Node("client-a"))
		for _, ap := range aps {
			if err := writeBody(&out, http, ap.HTTPAddr(), "/status"); err != nil {
				return err
			}
		}
		if err := writeBody(&out, http, edgeAddr, coherence.PathStats); err != nil {
			return err
		}
		return writeBody(&out, http, cp.Addr(), "/fleet")
	})
	if err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// writeRegistry renders one registry's exposition. Sample lines of
// families absent from the registry's snapshot (the SetLocal ones, and
// families with no samples) are dropped.
func writeRegistry(out *strings.Builder, name string, tel *telemetry.Telemetry) {
	snap := tel.BuildSnapshot(name, 0, 0)
	wire := make(map[string]bool)
	for _, keys := range []map[string]float64{snap.Counters, snap.Gauges} {
		for k := range keys {
			wire[familyOf(k)] = true
		}
	}
	for k := range snap.Hists {
		wire[familyOf(k)] = true
	}
	var text strings.Builder
	if err := tel.Metrics.WritePrometheus(&text); err != nil {
		fmt.Fprintf(out, "== registry %s: %v\n", name, err)
		return
	}
	fmt.Fprintf(out, "== registry %s\n", name)
	family := ""
	for _, line := range strings.SplitAfter(text.String(), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			family = strings.Fields(line)[2]
		}
		if strings.HasPrefix(line, "#") || wire[family] {
			out.WriteString(line)
		}
	}
}

func familyOf(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// writeBody renders one JSON endpoint's body.
func writeBody(out *strings.Builder, http *httplite.Client, addr transport.Addr, path string) error {
	resp, err := http.Get(addr, addr.Host, path)
	if err != nil {
		return fmt.Errorf("%s%s: %w", addr, path, err)
	}
	if resp.Status != 200 {
		return fmt.Errorf("%s%s: status %d", addr, path, resp.Status)
	}
	fmt.Fprintf(out, "== %s%s\n%s\n", addr, path, resp.Body)
	return nil
}
