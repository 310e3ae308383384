package coherence

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"apecache/internal/httplite"
	"apecache/internal/simnet"
	"apecache/internal/transport"
	"apecache/internal/vclock"
)

// batchSink is a subscriber endpoint that accepts both wire forms and
// records the received messages plus the wire request count.
type batchSink struct {
	mu       sync.Mutex
	msgs     []Msg
	requests int
}

func (p *batchSink) handle(req *httplite.Request) *httplite.Response {
	msgs, err := ParseMsgs(req.Body)
	if err != nil {
		return httplite.NewResponse(400, nil)
	}
	p.mu.Lock()
	p.requests++
	p.msgs = append(p.msgs, msgs...)
	p.mu.Unlock()
	return httplite.NewResponse(200, nil)
}

func (p *batchSink) snapshot() ([]Msg, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Msg(nil), p.msgs...), p.requests
}

func sortedURLs(msgs []Msg) []string {
	out := make([]string, 0, len(msgs))
	for _, m := range msgs {
		out = append(out, fmt.Sprintf("%s@%d", m.URL, m.Version))
	}
	sort.Strings(out)
	return out
}

// startSink binds a batchSink at name:8080 on the simulated network.
func startSink(t *testing.T, sim *vclock.Sim, net *simnet.Network, name string) *batchSink {
	t.Helper()
	sink := &batchSink{}
	mux := httplite.NewMux()
	mux.HandleFunc(DefaultPurgePath, sink.handle)
	l, err := net.Node(name).Listen(8080)
	if err != nil {
		t.Fatalf("%s listen: %v", name, err)
	}
	srv := httplite.NewServer(sim, mux)
	sim.Go(name+".server", func() { srv.Serve(l) })
	return sink
}

// TestDispatchBatchedEqualsPerMessage is the batch-path property test: a
// batch-capable subscriber and a legacy single-Msg subscriber on the
// same sharded hub must receive exactly the same purge set for the same
// publications — batching changes the wire framing, never the delivered
// content — while the batch endpoint sees far fewer wire requests.
func TestDispatchBatchedEqualsPerMessage(t *testing.T) {
	const purges = 40
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() {
		net := simnet.New(sim, 7)
		for _, n := range []string{"origin", "apb", "apl"} {
			net.SetLink(n, "edge", simnet.Path{Latency: 5 * time.Millisecond})
		}
		hub := NewHub(sim, net.Node("edge"), nil)
		hub.EnableDispatch(DispatchConfig{Shards: 8, FlushInterval: 5 * time.Millisecond})
		l, err := net.Node("edge").Listen(80)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		srv := httplite.NewServer(sim, hub.Wrap(httplite.HandlerFunc(func(*httplite.Request) *httplite.Response {
			return httplite.NewResponse(404, nil)
		})))
		sim.Go("hub.server", func() { srv.Serve(l) })
		hubAddr := transport.Addr{Host: "edge", Port: 80}

		batched := startSink(t, sim, net, "apb")
		legacy := startSink(t, sim, net, "apl")
		cb := httplite.NewClient(net.Node("apb"))
		if err := SubscribeWith(cb, hubAddr, Subscription{Addr: transport.Addr{Host: "apb", Port: 8080}, Batch: true}); err != nil {
			t.Errorf("batch subscribe: %v", err)
			return
		}
		cl := httplite.NewClient(net.Node("apl"))
		if err := Subscribe(cl, hubAddr, transport.Addr{Host: "apl", Port: 8080}, ""); err != nil {
			t.Errorf("legacy subscribe: %v", err)
			return
		}

		// A purge storm: all publications in flight concurrently, the way
		// an origin-side bulk update arrives, so the dispatcher actually
		// has something to coalesce.
		origin := httplite.NewClient(net.Node("origin"))
		for i := 0; i < purges; i++ {
			i := i
			sim.Go("storm.pub", func() {
				msg := Msg{URL: fmt.Sprintf("http://app%d.example/obj%d", i%4, i), Version: int64(i + 1)}
				if err := Publish(origin, hubAddr, msg); err != nil {
					t.Errorf("publish %d: %v", i, err)
				}
			})
		}
		sim.Sleep(2 * time.Second)

		bmsgs, breqs := batched.snapshot()
		lmsgs, lreqs := legacy.snapshot()
		bu, lu := sortedURLs(bmsgs), sortedURLs(lmsgs)
		if len(bu) != purges || len(lu) != purges {
			t.Fatalf("delivered %d batched / %d legacy msgs, want %d each", len(bu), len(lu), purges)
		}
		for i := range bu {
			if bu[i] != lu[i] {
				t.Fatalf("delivered sets diverge at %d: %s vs %s", i, bu[i], lu[i])
			}
		}
		if lreqs != purges {
			t.Errorf("legacy endpoint saw %d wire requests, want %d", lreqs, purges)
		}
		if breqs*4 > lreqs {
			t.Errorf("batch endpoint saw %d wire requests vs %d per-message: expected >= 4x coalescing", breqs, lreqs)
		}
		if hub.Published.Load() != purges {
			t.Errorf("published = %d, want %d", hub.Published.Load(), purges)
		}
	})
	sim.Shutdown()
	sim.Wait()
	if err := sim.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestDispatchShardRouting checks that domain interest confines purges
// to matching shards while interest-free subscribers receive everything.
func TestDispatchShardRouting(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() {
		net := simnet.New(sim, 3)
		for _, n := range []string{"origin", "apa", "apb", "apc"} {
			net.SetLink(n, "edge", simnet.Path{Latency: 2 * time.Millisecond})
		}
		hub := NewHub(sim, net.Node("edge"), nil)
		d := hub.EnableDispatch(DispatchConfig{Shards: 8, FlushInterval: 2 * time.Millisecond})

		sinkA := startSink(t, sim, net, "apa")
		sinkB := startSink(t, sim, net, "apb")
		sinkC := startSink(t, sim, net, "apc")
		d.Register(Subscription{Addr: transport.Addr{Host: "apa", Port: 8080}, Path: DefaultPurgePath, Domains: []string{"a.example"}, Batch: true})
		d.Register(Subscription{Addr: transport.Addr{Host: "apb", Port: 8080}, Path: DefaultPurgePath, Domains: []string{"b.example"}, Batch: true})
		d.Register(Subscription{Addr: transport.Addr{Host: "apc", Port: 8080}, Path: DefaultPurgePath, Batch: true})

		aMsg := Msg{URL: "http://a.example/x", Version: 1}
		bMsg := Msg{URL: "http://b.example/y", Version: 2}
		d.Publish(aMsg)
		d.Publish(bMsg)
		sim.Sleep(time.Second)

		am, _ := sinkA.snapshot()
		bm, _ := sinkB.snapshot()
		cm, _ := sinkC.snapshot()
		if len(cm) != 2 {
			t.Errorf("interest-free subscriber got %d msgs, want 2", len(cm))
		}
		hasURL := func(msgs []Msg, url string) bool {
			for _, m := range msgs {
				if m.URL == url {
					return true
				}
			}
			return false
		}
		if !hasURL(am, aMsg.URL) {
			t.Errorf("a-subscriber missed its own domain's purge: %+v", am)
		}
		if !hasURL(bm, bMsg.URL) {
			t.Errorf("b-subscriber missed its own domain's purge: %+v", bm)
		}
		// The two domains may or may not share a shard; cross-delivery is
		// allowed exactly when they collide.
		sm := NewShardMap(8)
		if sm.Shard("a.example") != sm.Shard("b.example") {
			if hasURL(am, bMsg.URL) || hasURL(bm, aMsg.URL) {
				t.Errorf("cross-shard delivery: a=%+v b=%+v", am, bm)
			}
		}
	})
	sim.Shutdown()
	sim.Wait()
	if err := sim.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestDispatchEvictsDeadSubscriber: after DefaultMaxFailures consecutive
// failed deliveries the dispatcher drops the registration; a re-subscribe
// (the restarted daemon) re-registers it.
func TestDispatchEvictsDeadSubscriber(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() {
		net := simnet.New(sim, 3)
		net.SetLink("edge", "deadap", simnet.Path{Latency: time.Millisecond})
		hub := NewHub(sim, net.Node("edge"), nil)
		d := hub.EnableDispatch(DispatchConfig{FlushInterval: 2 * time.Millisecond})
		dead := Subscription{Addr: transport.Addr{Host: "deadap", Port: 8080}, Path: DefaultPurgePath}
		d.Register(dead)

		for i := 0; i < DefaultMaxFailures; i++ {
			if st := d.Stats(); st.Evicted != 0 || st.Subscribers != 1 {
				t.Fatalf("round %d: stats = %+v, want no eviction before %d failures", i, st, DefaultMaxFailures)
			}
			d.Publish(Msg{URL: "http://a.example/x", Version: int64(i + 1)})
			sim.Sleep(50 * time.Millisecond) // one failed flush per round
		}
		if st := d.Stats(); st.Evicted != 1 || st.Subscribers != 0 {
			t.Errorf("stats = %+v, want one eviction, no subscribers", st)
		}
		if st := hub.Stats(); st.Evicted != 1 {
			t.Errorf("hub stats evicted = %d, want 1", st.Evicted)
		}
		d.Register(dead)
		if st := d.Stats(); st.Subscribers != 1 {
			t.Errorf("re-subscribe did not restore the registration: %+v", st)
		}
	})
	sim.Shutdown()
	sim.Wait()
	if err := sim.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestLegacyFanoutEvictsDeadSubscriber covers the same eviction contract
// on the per-delivery fan-out path.
func TestLegacyFanoutEvictsDeadSubscriber(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() {
		net := simnet.New(sim, 3)
		net.SetLink("edge", "deadap", simnet.Path{Latency: time.Millisecond})
		net.SetLink("edge", "liveap", simnet.Path{Latency: time.Millisecond})
		hub := NewHub(sim, net.Node("edge"), nil)
		live := startSink(t, sim, net, "liveap")
		for _, host := range []string{"deadap", "liveap"} {
			body := mustJSON(t, Subscription{Addr: transport.Addr{Host: host, Port: 8080}})
			if resp := hub.ServeHTTP(&httplite.Request{Path: PathSubscribe, Body: body}); resp.Status != 200 {
				t.Errorf("subscribe %s: %d", host, resp.Status)
			}
		}
		for i := 0; i < DefaultMaxFailures; i++ {
			if got := len(hub.Subscribers()); got != 2 {
				t.Fatalf("round %d: subscribers = %d, want 2 before %d failures", i, got, DefaultMaxFailures)
			}
			resp := hub.ServeHTTP(&httplite.Request{Path: PathPublish, Body: mustJSON(t, Msg{URL: "http://a.example/x", Version: int64(i + 1)})})
			if resp.Status != 200 {
				t.Errorf("publish: %d", resp.Status)
			}
			sim.Sleep(50 * time.Millisecond)
		}
		if got := len(hub.Subscribers()); got != 1 {
			t.Errorf("subscribers = %d, want 1 (dead endpoint evicted)", got)
		}
		if st := hub.Stats(); st.Evicted != 1 {
			t.Errorf("evicted = %d, want 1", st.Evicted)
		}
		if msgs, _ := live.snapshot(); len(msgs) != DefaultMaxFailures {
			t.Errorf("live subscriber got %d msgs, want %d", len(msgs), DefaultMaxFailures)
		}
	})
	sim.Shutdown()
	sim.Wait()
	if err := sim.Err(); err != nil {
		t.Fatal(err)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal %T: %v", v, err)
	}
	return body
}

// deadHost is a transport.Host whose dials fail immediately — the
// cheapest way to drive the dispatcher's failure paths from real
// goroutines.
type deadHost struct{ name string }

func (h deadHost) Name() string { return h.name }
func (h deadHost) Listen(uint16) (transport.Listener, error) {
	return nil, transport.ErrRefused
}
func (h deadHost) ListenPacket(uint16) (transport.PacketConn, error) {
	return nil, transport.ErrRefused
}
func (h deadHost) Dial(transport.Addr) (transport.Stream, error) {
	return nil, transport.ErrRefused
}
func (h deadHost) Now() time.Time { return time.Now() }

// TestHubConcurrentSubscribePublishDispatch hammers subscribe, publish,
// dispatch and stats from real goroutines under the race detector, on
// both fan-out engines.
func TestHubConcurrentSubscribePublishDispatch(t *testing.T) {
	for _, mode := range []string{"legacy", "dispatch"} {
		t.Run(mode, func(t *testing.T) {
			env := &vclock.Real{}
			hub := NewHub(env, deadHost{name: "edge"}, nil)
			var d *Dispatcher
			if mode == "dispatch" {
				d = hub.EnableDispatch(DispatchConfig{
					Shards:        8,
					FlushInterval: time.Millisecond,
				})
			}
			const workers, rounds = 8, 200
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						switch (w + i) % 4 {
						case 0:
							sub := Subscription{
								Addr:    transport.Addr{Host: fmt.Sprintf("ap%d", i%16), Port: 8080},
								Domains: []string{fmt.Sprintf("app%d.example", i%8)},
								Batch:   i%2 == 0,
							}
							hub.ServeHTTP(&httplite.Request{Path: PathSubscribe, Body: mustJSON(t, sub)})
						case 1:
							body := []byte(fmt.Sprintf(`{"url":"http://app%d.example/obj%d","version":%d}`, i%8, i, i))
							hub.ServeHTTP(&httplite.Request{Path: PathPublish, Body: body})
						case 2:
							hub.Stats()
							hub.Subscribers()
						case 3:
							hub.ServeHTTP(&httplite.Request{Path: PathStats})
						}
					}
				}()
			}
			wg.Wait()
			if d != nil {
				d.Stop()
			}
			if hub.Published.Load() == 0 {
				t.Error("no publications recorded")
			}
		})
	}
}
