package dnsd

import (
	"fmt"
	"testing"
	"time"

	"apecache/internal/dnswire"
	"apecache/internal/simnet"
	"apecache/internal/transport"
	"apecache/internal/vclock"
)

// bigHandler answers with enough TXT records to overflow any UDP budget.
type bigHandler struct {
	records int
}

func (b *bigHandler) HandleDNS(_ transport.Addr, query *dnswire.Message) *dnswire.Message {
	resp := query.Reply()
	name := dnswire.CanonicalName(query.FirstQuestion().Name)
	for i := range b.records {
		text := fmt.Sprintf("record-%04d-%s", i, "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")
		resp.Answers = append(resp.Answers, dnswire.RR{
			Name: name, Type: dnswire.TypeTXT, Class: dnswire.ClassIN, TTL: 60,
			Data: append([]byte{byte(len(text))}, text...),
		})
	}
	return resp
}

func TestTruncationFallsBackToTCP(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	net := simnet.New(sim, 2)
	net.SetLink("client", "server", simnet.Path{Latency: time.Millisecond})
	sim.Run("main", func() {
		h := &bigHandler{records: 200} // ≈12 KB of answers > 4096 EDNS budget
		if _, _, err := ListenAndServe(sim, net.Node("server"), 53, h); err != nil {
			t.Errorf("ListenAndServe: %v", err)
			return
		}
		q := dnswire.NewQuery(5, "big.example", dnswire.TypeTXT)
		resp, err := Query(net.Node("client"), transport.Addr{Host: "server", Port: 53}, q, 0)
		if err != nil {
			t.Errorf("Query: %v", err)
			return
		}
		if resp.Header.Truncated {
			t.Error("final answer still truncated after TCP retry")
		}
		if len(resp.Answers) != 200 {
			t.Errorf("answers = %d, want 200 (full TCP response)", len(resp.Answers))
		}
	})
	sim.Shutdown()
	sim.Wait()
	if err := sim.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestSmallResponsesStayOnUDP(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	net := simnet.New(sim, 2)
	net.SetLink("client", "server", simnet.Path{Latency: time.Millisecond})
	sim.Run("main", func() {
		h := &bigHandler{records: 3}
		if _, _, err := ListenAndServe(sim, net.Node("server"), 53, h); err != nil {
			t.Errorf("ListenAndServe: %v", err)
			return
		}
		start := sim.Now()
		q := dnswire.NewQuery(6, "small.example", dnswire.TypeTXT)
		resp, err := Query(net.Node("client"), transport.Addr{Host: "server", Port: 53}, q, 0)
		if err != nil || len(resp.Answers) != 3 {
			t.Errorf("Query: %v (%d answers)", err, len(resp.Answers))
			return
		}
		// One UDP round trip only: no TCP handshake.
		if got := sim.Now().Sub(start); got != 2*time.Millisecond {
			t.Errorf("small exchange took %v, want one RTT", got)
		}
	})
	sim.Shutdown()
	sim.Wait()
	if err := sim.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestClassicClientGets512Truncation(t *testing.T) {
	// A query WITHOUT an EDNS OPT must be truncated beyond 512 bytes.
	sim := vclock.NewSim(time.Time{})
	net := simnet.New(sim, 2)
	net.SetLink("client", "server", simnet.Path{Latency: time.Millisecond})
	sim.Run("main", func() {
		h := &bigHandler{records: 20} // > 512 B, < 4096 B
		pc, err := net.Node("server").ListenPacket(53)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		sim.Go("dns", func() { Serve(sim, pc, h) })

		cli, err := net.Node("client").ListenPacket(0)
		if err != nil {
			t.Errorf("client listen: %v", err)
			return
		}
		q := dnswire.NewQuery(8, "big.example", dnswire.TypeTXT)
		wire, _ := q.Encode() // no OPT added: classic 512-byte client
		if err := cli.WriteTo(wire, transport.Addr{Host: "server", Port: 53}); err != nil {
			t.Errorf("send: %v", err)
			return
		}
		pkt, err := cli.ReadFromTimeout(time.Second)
		if err != nil {
			t.Errorf("recv: %v", err)
			return
		}
		resp, err := dnswire.Decode(pkt.Payload)
		if err != nil {
			t.Errorf("decode: %v", err)
			return
		}
		if !resp.Header.Truncated {
			t.Error("expected TC for a classic client")
		}
		if len(pkt.Payload) > 512 {
			t.Errorf("truncated response is %d bytes", len(pkt.Payload))
		}
	})
	sim.Shutdown()
	sim.Wait()
	if err := sim.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestDNSCacheTruncationEndToEnd(t *testing.T) {
	// A DNS-Cache response for a domain with hundreds of known URLs must
	// survive via the TCP path with every flag intact. This exercises the
	// same Query() used by the APE-CACHE client.
	sim := vclock.NewSim(time.Time{})
	net := simnet.New(sim, 2)
	net.SetLink("client", "server", simnet.Path{Latency: time.Millisecond})
	sim.Run("main", func() {
		const urls = 600 // 9 bytes each ≈ 5.4 KB of RDATA > 4096
		h := HandlerFunc(func(_ transport.Addr, query *dnswire.Message) *dnswire.Message {
			resp := query.Reply()
			entries := make([]dnswire.CacheEntry, urls)
			for i := range entries {
				entries[i] = dnswire.CacheEntry{Hash: uint64(i + 1), Flag: dnswire.FlagCacheHit}
			}
			resp.Additional = append(resp.Additional,
				dnswire.NewCacheRR(query.FirstQuestion().Name, dnswire.ClassCacheResponse, entries))
			return resp
		})
		if _, _, err := ListenAndServe(sim, net.Node("server"), 53, h); err != nil {
			t.Errorf("ListenAndServe: %v", err)
			return
		}
		q := dnswire.NewQuery(9, "hot.example", dnswire.TypeA)
		resp, err := Query(net.Node("client"), transport.Addr{Host: "server", Port: 53}, q, 0)
		if err != nil {
			t.Errorf("Query: %v", err)
			return
		}
		rr, ok := resp.FindCacheRR(dnswire.ClassCacheResponse)
		if !ok {
			t.Error("cache RR lost")
			return
		}
		entries, err := dnswire.ParseCacheRR(rr)
		if err != nil || len(entries) != urls {
			t.Errorf("entries = %d, %v; want %d", len(entries), err, urls)
		}
	})
	sim.Shutdown()
	sim.Wait()
	if err := sim.Err(); err != nil {
		t.Fatal(err)
	}
}
