package dnsd

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apecache/internal/dnswire"
	"apecache/internal/realnet"
	"apecache/internal/simnet"
	"apecache/internal/transport"
	"apecache/internal/vclock"
)

// akamaiFixture builds the Fig. 1 resolution chain on simnet:
//
//	client --1ms-- ap(forwarder) --5ms-- ldns --8ms-- adns
//	                                       \--6ms-- cdndns
//
// www.apple.com CNAMEs to www.apple.com.edgekey.net, whose A record is the
// nearest edge for the querying LDNS.
type akamaiFixture struct {
	sim      *vclock.Sim
	net      *simnet.Network
	book     *AddrBook
	fwd      *Forwarder
	apAddr   transport.Addr
	ldnsAddr transport.Addr
}

func newAkamaiFixture(t *testing.T, sim *vclock.Sim) *akamaiFixture {
	t.Helper()
	net := simnet.New(sim, 17)
	net.SetLink("client", "ap", simnet.Path{Latency: 1 * time.Millisecond})
	net.SetLink("ap", "ldns", simnet.Path{Latency: 5 * time.Millisecond})
	net.SetLink("ldns", "adns", simnet.Path{Latency: 8 * time.Millisecond})
	net.SetLink("ldns", "cdndns", simnet.Path{Latency: 6 * time.Millisecond})

	book := NewAddrBook()
	edgeIP := book.Assign("edge-mi")

	rng := rand.New(rand.NewSource(5))

	adns := NewAuthoritative(sim)
	adns.Add(dnswire.NewCNAME("www.apple.com", 300, "www.apple.com.edgekey.net"))

	cdn := NewCDNRedirector(sim, 20)
	cdn.SetNearest("ldns", edgeIP)

	ldns := NewResolver(sim, net.Node("ldns"), rng)
	ldns.Delegate("apple.com", transport.Addr{Host: "adns", Port: 53})
	ldns.Delegate("edgekey.net", transport.Addr{Host: "cdndns", Port: 53})

	fwd := NewForwarder(sim, net.Node("ap"), rng, transport.Addr{Host: "ldns", Port: 53})

	for _, s := range []struct {
		node string
		h    Handler
	}{
		{"adns", adns}, {"cdndns", cdn}, {"ldns", ldns}, {"ap", fwd},
	} {
		pc, err := net.Node(s.node).ListenPacket(53)
		if err != nil {
			t.Fatalf("listen %s: %v", s.node, err)
		}
		h := s.h
		sim.Go("dns."+s.node, func() { Serve(sim, pc, h) })
	}

	return &akamaiFixture{
		sim:      sim,
		net:      net,
		book:     book,
		fwd:      fwd,
		apAddr:   transport.Addr{Host: "ap", Port: 53},
		ldnsAddr: transport.Addr{Host: "ldns", Port: 53},
	}
}

func TestFullResolutionChain(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	var fx *akamaiFixture
	sim.Run("main", func() {
		fx = newAkamaiFixture(t, sim)
		start := sim.Now()
		q := dnswire.NewQuery(1, "www.apple.com", dnswire.TypeA)
		resp, err := Query(fx.net.Node("client"), fx.apAddr, q, 0)
		if err != nil {
			t.Errorf("Query: %v", err)
			return
		}
		ip, ok := resp.AnswerA()
		if !ok {
			t.Errorf("no A answer: %+v", resp)
			return
		}
		if node, _ := fx.book.NodeFor(ip); node != "edge-mi" {
			t.Errorf("resolved to %v (%s), want edge-mi", ip, node)
		}
		cname, ok := resp.AnswerCNAME()
		if !ok || cname != "www.apple.com.edgekey.net" {
			t.Errorf("CNAME = %q, %v", cname, ok)
		}
		// Cold chain: client->ap (2ms) + ap->ldns (10ms) + ldns->adns
		// (16ms) + ldns->cdndns (12ms) = 40ms.
		if got := sim.Now().Sub(start); got != 40*time.Millisecond {
			t.Errorf("cold resolution took %v, want 40ms", got)
		}

		// Warm query: answered from the AP forwarder cache in one
		// client<->ap round trip.
		start = sim.Now()
		q2 := dnswire.NewQuery(2, "www.apple.com", dnswire.TypeA)
		if _, err := Query(fx.net.Node("client"), fx.apAddr, q2, 0); err != nil {
			t.Errorf("warm query: %v", err)
			return
		}
		if got := sim.Now().Sub(start); got != 2*time.Millisecond {
			t.Errorf("warm resolution took %v, want 2ms", got)
		}
		if hits, misses := fx.fwd.CacheStats(); hits != 1 || misses != 1 {
			t.Errorf("forwarder hits=%d misses=%d", hits, misses)
		}
	})
	sim.Shutdown()
	sim.Wait()
	if err := sim.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestForwarderCacheExpires(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() {
		fx := newAkamaiFixture(t, sim)
		q := dnswire.NewQuery(1, "www.apple.com", dnswire.TypeA)
		if _, err := Query(fx.net.Node("client"), fx.apAddr, q, 0); err != nil {
			t.Errorf("query1: %v", err)
			return
		}
		// The CDN answer TTL is 20s (min of the chain); after 30s the
		// forwarder must re-resolve.
		sim.Sleep(30 * time.Second)
		q2 := dnswire.NewQuery(2, "www.apple.com", dnswire.TypeA)
		if _, err := Query(fx.net.Node("client"), fx.apAddr, q2, 0); err != nil {
			t.Errorf("query2: %v", err)
			return
		}
		if _, misses := fx.fwd.CacheStats(); misses != 2 {
			t.Errorf("misses = %d, want 2 (TTL expiry forces re-resolution)", misses)
		}
	})
}

func TestNXDomainForUnservedRegion(t *testing.T) {
	// A CDN with no edge for the querying region answers NXDOMAIN — the
	// paper's Yahoo-in-São-Paulo observation.
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() {
		fx := newAkamaiFixture(t, sim)
		_ = fx
		q := dnswire.NewQuery(9, "www.unknown-site.com", dnswire.TypeA)
		resp, err := Query(fx.net.Node("client"), fx.apAddr, q, 0)
		if err != nil {
			t.Errorf("Query: %v", err)
			return
		}
		if resp.Header.RCode != dnswire.RCodeNameError {
			t.Errorf("rcode = %v, want NXDOMAIN", resp.Header.RCode)
		}
	})
}

func TestAuthoritativeAnswersAAndUnknownType(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() {
		a := NewAuthoritative(sim)
		a.Add(dnswire.NewA("direct.example", 60, dnswire.IPv4{1, 2, 3, 4}))
		resp := a.HandleDNS(transport.Addr{}, dnswire.NewQuery(1, "direct.example", dnswire.TypeA))
		if ip, ok := resp.AnswerA(); !ok || ip != (dnswire.IPv4{1, 2, 3, 4}) {
			t.Errorf("A answer = %v %v", ip, ok)
		}
		resp = a.HandleDNS(transport.Addr{}, dnswire.NewQuery(2, "absent.example", dnswire.TypeA))
		if resp.Header.RCode != dnswire.RCodeNameError {
			t.Errorf("rcode = %v, want NXDOMAIN", resp.Header.RCode)
		}
	})
}

func TestAddrBook(t *testing.T) {
	b := NewAddrBook()
	ip1 := b.Assign("edge1")
	ip2 := b.Assign("edge2")
	if ip1 == ip2 {
		t.Error("distinct nodes share an IP")
	}
	if again := b.Assign("edge1"); again != ip1 {
		t.Error("Assign not idempotent")
	}
	if node, ok := b.NodeFor(ip2); !ok || node != "edge2" {
		t.Errorf("NodeFor = %q, %v", node, ok)
	}
	if _, ok := b.NodeFor(dnswire.IPv4{9, 9, 9, 9}); ok {
		t.Error("unknown IP resolved")
	}
	if ip, ok := b.IPFor("edge1"); !ok || ip != ip1 {
		t.Errorf("IPFor = %v, %v", ip, ok)
	}
}

func TestQueryTimesOutAgainstSilentServer(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	net := simnet.New(sim, 3)
	net.SetLink("client", "hole", simnet.Path{Latency: time.Millisecond, Loss: 1})
	sim.Run("main", func() {
		// The "server" exists but the path eats every datagram.
		if _, err := net.Node("hole").ListenPacket(53); err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		q := dnswire.NewQuery(3, "x.example", dnswire.TypeA)
		start := sim.Now()
		_, err := Query(net.Node("client"), transport.Addr{Host: "hole", Port: 53}, q, 100*time.Millisecond)
		if err == nil {
			t.Error("expected timeout error")
		}
		if got := sim.Now().Sub(start); got != 100*time.Millisecond {
			t.Errorf("timeout consumed %v, want 100ms", got)
		}
	})
}

// TestQueryDeadlineSurvivesWrongDatagrams pins that one deadline bounds the
// whole exchange: a responder that keeps answering with another
// transaction's ID (and with garbage) must not buy the query more waiting
// time with every datagram it sends.
func TestQueryDeadlineSurvivesWrongDatagrams(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	net := simnet.New(sim, 3)
	net.SetLink("client", "liar", simnet.Path{Latency: time.Millisecond})
	sim.Run("main", func() {
		pc, err := net.Node("liar").ListenPacket(53)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		sim.Go("liar", func() {
			pkt, err := pc.ReadFrom()
			if err != nil {
				return
			}
			query, err := dnswire.Decode(pkt.Payload)
			if err != nil {
				t.Errorf("liar decode: %v", err)
				return
			}
			wrong := query.Reply()
			wrong.Header.ID++
			wire, _ := wrong.Encode()
			// A wrong datagram every 30 ms for two seconds: always one
			// inside any 100 ms window.
			for i := range 66 {
				if i%2 == 0 {
					_ = pc.WriteTo(wire, pkt.From)
				} else {
					_ = pc.WriteTo([]byte("not dns"), pkt.From)
				}
				sim.Sleep(30 * time.Millisecond)
			}
		})
		q := dnswire.NewQuery(3, "x.example", dnswire.TypeA)
		start := sim.Now()
		_, err = Query(net.Node("client"), transport.Addr{Host: "liar", Port: 53}, q, 100*time.Millisecond)
		if !errors.Is(err, transport.ErrTimeout) {
			t.Errorf("err = %v, want transport.ErrTimeout", err)
		}
		if got := sim.Now().Sub(start); got != 100*time.Millisecond {
			t.Errorf("query gave up after %v, want 100ms", got)
		}
	})
}

// TestServePayloadsSurviveLaterReads sends 64 concurrent datagrams with
// distinct payloads through Serve over real loopback sockets. Every handler
// waits until all 64 have been read, so each payload has outlived many
// later reads of the same socket by the time it is checked: a receive
// buffer reused without a copy fails here (and trips the race detector).
func TestServePayloadsSurviveLaterReads(t *testing.T) {
	const n = 64
	host := realnet.NewHost("")
	env := &vclock.Real{}
	pc, err := host.ListenPacket(0)
	if err != nil {
		t.Fatalf("ListenPacket: %v", err)
	}
	entriesFor := func(i int) []dnswire.CacheEntry {
		entries := make([]dnswire.CacheEntry, 1+i) // distinct lengths too
		for j := range entries {
			entries[j] = dnswire.CacheEntry{Hash: uint64(i)<<32 | uint64(j)}
		}
		return entries
	}
	var arrived atomic.Int32
	all := make(chan struct{})
	handler := HandlerFunc(func(_ transport.Addr, query *dnswire.Message) *dnswire.Message {
		if arrived.Add(1) == n {
			close(all)
		}
		select {
		case <-all:
		case <-time.After(5 * time.Second):
			t.Errorf("only %d of %d queries reached a handler", arrived.Load(), n)
		}
		resp := query.Reply()
		var i int
		if _, err := fmt.Sscanf(query.FirstQuestion().Name, "q%d.example", &i); err != nil {
			t.Errorf("question %q: %v", query.FirstQuestion().Name, err)
			return resp
		}
		rr, _ := query.FindCacheRR(dnswire.ClassCacheRequest)
		got, err := dnswire.ParseCacheRR(rr)
		if err != nil || !slices.Equal(got, entriesFor(i)) {
			t.Errorf("handler %d saw entries %v (err %v), not its own", i, got, err)
		}
		resp.Answers = append(resp.Answers, dnswire.NewA(query.FirstQuestion().Name, 0, dnswire.IPv4{10, 0, 0, byte(i)}))
		return resp
	})
	env.Go("serve", func() { Serve(env, pc, handler) })

	var clients sync.WaitGroup
	for i := range n {
		clients.Add(1)
		go func() {
			defer clients.Done()
			name := fmt.Sprintf("q%d.example", i)
			q := dnswire.NewQuery(uint16(1000+i), name, dnswire.TypeA)
			q.Additional = append(q.Additional, dnswire.NewCacheRR(name, dnswire.ClassCacheRequest, entriesFor(i)))
			resp, err := Query(host, pc.Addr(), q, 10*time.Second)
			if err != nil {
				t.Errorf("query %d: %v", i, err)
				return
			}
			if ip, ok := resp.AnswerA(); !ok || ip != (dnswire.IPv4{10, 0, 0, byte(i)}) {
				t.Errorf("query %d: answer %v, not its own", i, ip)
			}
		}()
	}
	clients.Wait()
	pc.Close()
	env.Wait()
}
