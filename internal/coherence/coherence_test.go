package coherence

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"apecache/internal/httplite"
	"apecache/internal/simnet"
	"apecache/internal/transport"
	"apecache/internal/vclock"
)

func TestETagRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, 7, 1 << 40} {
		etag := FormatETag(v)
		got, ok := ParseETag(etag)
		if !ok || got != v {
			t.Errorf("ParseETag(%q) = %d, %v; want %d", etag, got, ok, v)
		}
	}
	for _, bad := range []string{"", "\"x3\"", "W/\"v\"", "W/\"v-1\"", "\"3\"", "W/\"vab\""} {
		if v, ok := ParseETag(bad); ok {
			t.Errorf("ParseETag(%q) = %d, true; want false", bad, v)
		}
	}
}

func TestParseMode(t *testing.T) {
	cases := map[string]Mode{
		"": ModeOff, "off": ModeOff, "ttl-only": ModeOff,
		"invalidate": ModeInvalidate, "SWR": ModeSWR, "stale-while-revalidate": ModeSWR,
	}
	for in, want := range cases {
		got, err := ParseMode(in)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("ParseMode(bogus) succeeded")
	}
}

func TestParseMsgCanonicalizes(t *testing.T) {
	msg, err := ParseMsg([]byte(`{"url":"http://a.example/x?q=1","version":3}`))
	if err != nil {
		t.Fatal(err)
	}
	if msg.URL != "http://a.example/x" || msg.Version != 3 || msg.Gone {
		t.Errorf("msg = %+v", msg)
	}
	if got := msg.String(); got != "PURGE http://a.example/x@3" {
		t.Errorf("String = %q", got)
	}
	if _, err := ParseMsg([]byte(`{}`)); err == nil {
		t.Error("empty purge accepted")
	}
	if _, err := ParseMsg([]byte(`not json`)); err == nil {
		t.Error("malformed purge accepted")
	}
}

// purgeSink is a subscriber endpoint that records relayed purges.
type purgeSink struct {
	mu   sync.Mutex
	msgs []Msg
}

func (p *purgeSink) handle(req *httplite.Request) *httplite.Response {
	msg, err := ParseMsg(req.Body)
	if err != nil {
		return httplite.NewResponse(400, nil)
	}
	p.mu.Lock()
	p.msgs = append(p.msgs, msg)
	p.mu.Unlock()
	return httplite.NewResponse(200, nil)
}

func (p *purgeSink) seen() []Msg {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Msg(nil), p.msgs...)
}

// TestHubFanOut wires origin -> hub -> two subscribers on the simulated
// network and checks that one publication invalidates the local copy and
// reaches every subscriber.
func TestHubFanOut(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() {
		net := simnet.New(sim, 7)
		for _, n := range []string{"origin", "ap1", "ap2"} {
			net.SetLink(n, "edge", simnet.Path{Latency: 5 * time.Millisecond})
		}

		var local []Msg
		hub := NewHub(sim, net.Node("edge"), func(m Msg) { local = append(local, m) })
		l, err := net.Node("edge").Listen(80)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		srv := httplite.NewServer(sim, hub.Wrap(httplite.HandlerFunc(func(*httplite.Request) *httplite.Response {
			return httplite.NewResponse(200, []byte("edge"))
		})))
		sim.Go("hub.server", func() { srv.Serve(l) })
		hubAddr := transport.Addr{Host: "edge", Port: 80}

		sinks := make(map[string]*purgeSink)
		for _, name := range []string{"ap1", "ap2"} {
			sink := &purgeSink{}
			sinks[name] = sink
			mux := httplite.NewMux()
			mux.HandleFunc(DefaultPurgePath, sink.handle)
			al, err := net.Node(name).Listen(8080)
			if err != nil {
				t.Errorf("%s listen: %v", name, err)
				return
			}
			asrv := httplite.NewServer(sim, mux)
			sim.Go(name+".server", func() { asrv.Serve(al) })
			client := httplite.NewClient(net.Node(name))
			if err := Subscribe(client, hubAddr, transport.Addr{Host: name, Port: 8080}, ""); err != nil {
				t.Errorf("%s subscribe: %v", name, err)
				return
			}
			// Idempotent re-subscribe must not double-deliver.
			if err := Subscribe(client, hubAddr, transport.Addr{Host: name, Port: 8080}, ""); err != nil {
				t.Errorf("%s re-subscribe: %v", name, err)
				return
			}
		}
		if got := len(hub.Subscribers()); got != 2 {
			t.Errorf("subscribers = %d, want 2", got)
		}

		origin := httplite.NewClient(net.Node("origin"))
		msg := Msg{URL: "http://api.x.example/obj?v=1", Version: 2}
		if err := Publish(origin, hubAddr, msg); err != nil {
			t.Errorf("publish: %v", err)
			return
		}
		sim.Sleep(time.Second) // let background relays complete

		if len(local) != 1 || local[0].URL != "http://api.x.example/obj" {
			t.Errorf("local purge = %+v", local)
		}
		for name, sink := range sinks {
			msgs := sink.seen()
			if len(msgs) != 1 || msgs[0].Version != 2 || msgs[0].URL != "http://api.x.example/obj" {
				t.Errorf("%s received %+v, want one v2 purge", name, msgs)
			}
		}
		if hub.published.Value() != 1 || hub.relayed.Value() != 2 {
			t.Errorf("hub counters published=%d relayed=%d, want 1/2", hub.published.Value(), hub.relayed.Value())
		}
		st := hub.Stats()
		if st.Published != 1 || st.Relayed != 2 || st.Subscribers != 2 || st.Dispatch != nil {
			t.Errorf("hub stats = %+v, want published=1 relayed=2 subscribers=2 no dispatch", st)
		}

		// The wrapped edge handler still serves ordinary paths.
		resp, err := origin.Get(hubAddr, "edge", "/some/object")
		if err != nil || resp.Status != 200 || string(resp.Body) != "edge" {
			t.Errorf("wrapped edge fetch: %v %+v", err, resp)
		}
	})
	sim.Shutdown()
	sim.Wait()
	if err := sim.Err(); err != nil {
		t.Fatal(err)
	}
}

// A daemon that restarts re-subscribes its endpoint — possibly with a
// different purge path. The hub must hold exactly one registration per
// endpoint, replacing rather than appending, or every purge would be
// delivered twice (and the dead old path would be dialed forever).
func TestHubResubscribeReplacesEndpoint(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	net := simnet.New(sim, 3)
	hub := NewHub(sim, net.Node("edge"), nil)
	subscribe := func(addr transport.Addr, path string) {
		t.Helper()
		body, err := json.Marshal(Subscription{Addr: addr, Path: path})
		if err != nil {
			t.Fatal(err)
		}
		resp := hub.ServeHTTP(&httplite.Request{Path: PathSubscribe, Body: body})
		if resp.Status != 200 {
			t.Fatalf("subscribe %s %s: status %d", addr, path, resp.Status)
		}
	}

	apAddr := transport.Addr{Host: "ap1", Port: 8080}
	subscribe(apAddr, "")
	subscribe(apAddr, "")          // same endpoint, same (default) path
	subscribe(apAddr, "/purge-v2") // restarted daemon, new path
	subscribe(transport.Addr{Host: "ap2", Port: 8080}, "")

	if got := len(hub.Subscribers()); got != 2 {
		t.Fatalf("subscribers = %d, want 2 (one per endpoint)", got)
	}
	var ap1Paths []string
	for _, s := range hub.dispatch.Subscribers() {
		if s.Addr == apAddr {
			ap1Paths = append(ap1Paths, s.Path)
		}
	}
	if len(ap1Paths) != 1 || ap1Paths[0] != "/purge-v2" {
		t.Fatalf("ap1 registrations = %v, want exactly [/purge-v2]", ap1Paths)
	}
}
