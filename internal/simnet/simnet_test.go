package simnet

import (
	"errors"
	"io"
	"testing"
	"time"

	"apecache/internal/transport"
	"apecache/internal/vclock"
)

// fixture builds a two-node network with a deterministic symmetric path.
func fixture(t *testing.T, p Path) (*vclock.Sim, *Network) {
	t.Helper()
	sim := vclock.NewSim(time.Time{})
	net := New(sim, 42)
	net.SetLink("a", "b", p)
	return sim, net
}

func TestDialCostsOneRoundTrip(t *testing.T) {
	sim, net := fixture(t, Path{Latency: 5 * time.Millisecond})
	sim.Run("main", func() {
		l, err := net.Node("b").Listen(80)
		if err != nil {
			t.Errorf("Listen: %v", err)
			return
		}
		defer l.Close()
		start := sim.Now()
		c, err := net.Node("a").Dial(transport.Addr{Host: "b", Port: 80})
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		defer c.Close()
		if got := sim.Now().Sub(start); got != 10*time.Millisecond {
			t.Errorf("dial took %v, want 10ms (one RTT)", got)
		}
	})
}

func TestStreamRoundTrip(t *testing.T) {
	sim, net := fixture(t, Path{Latency: 2 * time.Millisecond})
	sim.Run("main", func() {
		l, _ := net.Node("b").Listen(80)
		defer l.Close()
		sim.Go("echo", func() {
			s, err := l.Accept()
			if err != nil {
				return
			}
			defer s.Close()
			buf := make([]byte, 64)
			n, err := s.Read(buf)
			if err != nil {
				t.Errorf("server read: %v", err)
				return
			}
			if _, err := s.Write(buf[:n]); err != nil {
				t.Errorf("server write: %v", err)
			}
		})
		c, err := net.Node("a").Dial(transport.Addr{Host: "b", Port: 80})
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		defer c.Close()
		start := sim.Now()
		if _, err := c.Write([]byte("ping")); err != nil {
			t.Errorf("Write: %v", err)
			return
		}
		buf := make([]byte, 64)
		n, err := c.Read(buf)
		if err != nil || string(buf[:n]) != "ping" {
			t.Errorf("Read = %q, %v; want ping", buf[:n], err)
			return
		}
		if got := sim.Now().Sub(start); got != 4*time.Millisecond {
			t.Errorf("echo RTT = %v, want 4ms", got)
		}
	})
}

func TestStreamPreservesOrderUnderJitter(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	net := New(sim, 7)
	net.SetLink("a", "b", Path{Latency: time.Millisecond, Jitter: 5 * time.Millisecond})
	sim.Run("main", func() {
		l, _ := net.Node("b").Listen(80)
		defer l.Close()
		var got []byte
		done := vclock.NewQueue[struct{}](sim, "done")
		sim.Go("server", func() {
			s, err := l.Accept()
			if err != nil {
				return
			}
			defer s.Close()
			b, err := io.ReadAll(readerOf(s))
			if err != nil {
				t.Errorf("ReadAll: %v", err)
			}
			got = b
			done.Push(struct{}{})
		})
		c, _ := net.Node("a").Dial(transport.Addr{Host: "b", Port: 80})
		want := ""
		for i := range 50 {
			msg := string(rune('a' + i%26))
			want += msg
			if _, err := c.Write([]byte(msg)); err != nil {
				t.Errorf("Write: %v", err)
				return
			}
		}
		c.Close()
		if _, err := done.Pop(); err != nil {
			t.Errorf("wait: %v", err)
			return
		}
		if string(got) != want {
			t.Errorf("stream reordered: got %q want %q", got, want)
		}
	})
}

// readerOf adapts a transport.Stream to io.Reader (it already is one).
func readerOf(s transport.Stream) io.Reader { return s }

func TestDialRefusedWhenNoListener(t *testing.T) {
	sim, net := fixture(t, Path{Latency: time.Millisecond})
	sim.Run("main", func() {
		start := sim.Now()
		_, err := net.Node("a").Dial(transport.Addr{Host: "b", Port: 81})
		if !errors.Is(err, transport.ErrRefused) {
			t.Errorf("err = %v, want ErrRefused", err)
		}
		if got := sim.Now().Sub(start); got != 2*time.Millisecond {
			t.Errorf("refusal took %v, want one RTT (2ms)", got)
		}
	})
}

func TestDatagramDelivery(t *testing.T) {
	sim, net := fixture(t, Path{Latency: 3 * time.Millisecond})
	sim.Run("main", func() {
		srv, _ := net.Node("b").ListenPacket(53)
		cli, _ := net.Node("a").ListenPacket(0)
		start := sim.Now()
		if err := cli.WriteTo([]byte("query"), transport.Addr{Host: "b", Port: 53}); err != nil {
			t.Errorf("WriteTo: %v", err)
			return
		}
		pkt, err := srv.ReadFrom()
		if err != nil || string(pkt.Payload) != "query" {
			t.Errorf("ReadFrom = %q, %v", pkt.Payload, err)
			return
		}
		if got := sim.Now().Sub(start); got != 3*time.Millisecond {
			t.Errorf("one-way delivery took %v, want 3ms", got)
		}
		if pkt.From.Host != "a" {
			t.Errorf("From.Host = %q, want a", pkt.From.Host)
		}
		// Reply to the observed source address.
		if err := srv.WriteTo([]byte("answer"), pkt.From); err != nil {
			t.Errorf("reply: %v", err)
			return
		}
		reply, err := cli.ReadFrom()
		if err != nil || string(reply.Payload) != "answer" {
			t.Errorf("reply = %q, %v", reply.Payload, err)
		}
	})
}

func TestDatagramLossDropsEverythingAtLossOne(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	net := New(sim, 1)
	net.SetLink("a", "b", Path{Latency: time.Millisecond, Loss: 1.0})
	sim.Run("main", func() {
		srv, _ := net.Node("b").ListenPacket(53)
		cli, _ := net.Node("a").ListenPacket(0)
		for range 10 {
			if err := cli.WriteTo([]byte("x"), transport.Addr{Host: "b", Port: 53}); err != nil {
				t.Errorf("WriteTo: %v", err)
				return
			}
		}
		if _, err := srv.ReadFromTimeout(50 * time.Millisecond); !errors.Is(err, transport.ErrTimeout) {
			t.Errorf("err = %v, want ErrTimeout (all datagrams lost)", err)
		}
	})
}

func TestBandwidthAddsSerializationDelay(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	net := New(sim, 1)
	// 1 MB/s, zero propagation: 100 KB should take 100 ms.
	net.SetLink("a", "b", Path{Bandwidth: 1 << 20})
	sim.Run("main", func() {
		srv, _ := net.Node("b").ListenPacket(9)
		cli, _ := net.Node("a").ListenPacket(0)
		payload := make([]byte, 100<<10)
		start := sim.Now()
		if err := cli.WriteTo(payload, transport.Addr{Host: "b", Port: 9}); err != nil {
			t.Errorf("WriteTo: %v", err)
			return
		}
		if _, err := srv.ReadFrom(); err != nil {
			t.Errorf("ReadFrom: %v", err)
			return
		}
		got := sim.Now().Sub(start)
		want := time.Duration(float64(100<<10) / float64(1<<20) * float64(time.Second))
		if got < want*9/10 || got > want*11/10 {
			t.Errorf("serialization delay = %v, want ≈%v", got, want)
		}
	})
}

func TestPingAndHops(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	net := New(sim, 1)
	net.SetLink("mi", "edge", Path{Latency: 14 * time.Millisecond, Hops: 13})
	sim.Run("main", func() {
		start := sim.Now()
		rtt := net.Ping("mi", "edge")
		if rtt != 28*time.Millisecond {
			t.Errorf("Ping = %v, want 28ms", rtt)
		}
		if got := sim.Now().Sub(start); got != rtt {
			t.Errorf("Ping consumed %v of virtual time, want %v", got, rtt)
		}
		if h := net.Hops("mi", "edge"); h != 13 {
			t.Errorf("Hops = %d, want 13", h)
		}
	})
}

func TestListenAddrInUse(t *testing.T) {
	sim, net := fixture(t, Path{})
	sim.Run("main", func() {
		if _, err := net.Node("a").Listen(80); err != nil {
			t.Errorf("first Listen: %v", err)
			return
		}
		if _, err := net.Node("a").Listen(80); !errors.Is(err, transport.ErrAddrInUse) {
			t.Errorf("second Listen err = %v, want ErrAddrInUse", err)
		}
		// UDP and TCP port spaces are distinct.
		if _, err := net.Node("a").ListenPacket(80); err != nil {
			t.Errorf("ListenPacket on same port: %v", err)
		}
	})
}

func TestEphemeralPortsAreDistinct(t *testing.T) {
	sim, net := fixture(t, Path{})
	sim.Run("main", func() {
		a, _ := net.Node("a").ListenPacket(0)
		b, _ := net.Node("a").ListenPacket(0)
		if a.Addr().Port == b.Addr().Port {
			t.Errorf("ephemeral ports collide: %d", a.Addr().Port)
		}
	})
}

func TestReadAfterPeerCloseSeesEOFAfterData(t *testing.T) {
	sim, net := fixture(t, Path{Latency: time.Millisecond})
	sim.Run("main", func() {
		l, _ := net.Node("b").Listen(80)
		sim.Go("server", func() {
			s, err := l.Accept()
			if err != nil {
				return
			}
			_, _ = s.Write([]byte("tail"))
			s.Close()
		})
		c, _ := net.Node("a").Dial(transport.Addr{Host: "b", Port: 80})
		data, err := io.ReadAll(readerOf(c))
		if err != nil || string(data) != "tail" {
			t.Errorf("ReadAll = %q, %v; want tail", data, err)
		}
	})
}

func TestStreamReadTimeout(t *testing.T) {
	sim, net := fixture(t, Path{Latency: time.Millisecond})
	sim.Run("main", func() {
		l, _ := net.Node("b").Listen(80)
		sim.Go("server", func() {
			s, err := l.Accept()
			if err != nil {
				return
			}
			_ = s // never writes
		})
		c, _ := net.Node("a").Dial(transport.Addr{Host: "b", Port: 80})
		c.SetReadTimeout(8 * time.Millisecond)
		start := sim.Now()
		buf := make([]byte, 8)
		if _, err := c.Read(buf); !errors.Is(err, transport.ErrTimeout) {
			t.Errorf("Read err = %v, want ErrTimeout", err)
		}
		if got := sim.Now().Sub(start); got != 8*time.Millisecond {
			t.Errorf("timeout consumed %v, want 8ms", got)
		}
	})
}

func TestWriteAfterCloseFails(t *testing.T) {
	sim, net := fixture(t, Path{Latency: time.Millisecond})
	sim.Run("main", func() {
		l, _ := net.Node("b").Listen(80)
		sim.Go("server", func() { _, _ = l.Accept() })
		c, _ := net.Node("a").Dial(transport.Addr{Host: "b", Port: 80})
		c.Close()
		if _, err := c.Write([]byte("x")); !errors.Is(err, transport.ErrClosed) {
			t.Errorf("Write err = %v, want ErrClosed", err)
		}
	})
}

func TestLoopbackPath(t *testing.T) {
	sim, net := fixture(t, Path{Latency: time.Millisecond})
	sim.Run("main", func() {
		srv, _ := net.Node("a").ListenPacket(53)
		cli, _ := net.Node("a").ListenPacket(0)
		start := sim.Now()
		_ = cli.WriteTo([]byte("hi"), transport.Addr{Host: "a", Port: 53})
		if _, err := srv.ReadFrom(); err != nil {
			t.Errorf("ReadFrom: %v", err)
			return
		}
		if got := sim.Now().Sub(start); got >= time.Millisecond {
			t.Errorf("loopback delivery took %v, want < 1ms", got)
		}
	})
}

// BenchmarkEcho measures virtual-time round trips per wall second, the
// simulator's core throughput.
func BenchmarkEcho(b *testing.B) {
	sim := vclock.NewSim(time.Time{})
	net := New(sim, 1)
	net.SetLink("a", "b", Path{Latency: time.Millisecond})
	sim.Run("bench", func() {
		l, err := net.Node("b").Listen(80)
		if err != nil {
			b.Errorf("listen: %v", err)
			return
		}
		sim.Go("echo", func() {
			for {
				s, err := l.Accept()
				if err != nil {
					return
				}
				sim.Go("conn", func() {
					buf := make([]byte, 256)
					for {
						n, err := s.Read(buf)
						if err != nil {
							return
						}
						if _, err := s.Write(buf[:n]); err != nil {
							return
						}
					}
				})
			}
		})
		c, err := net.Node("a").Dial(transport.Addr{Host: "b", Port: 80})
		if err != nil {
			b.Errorf("dial: %v", err)
			return
		}
		buf := make([]byte, 256)
		b.ResetTimer()
		for b.Loop() {
			if _, err := c.Write([]byte("ping")); err != nil {
				b.Errorf("write: %v", err)
				return
			}
			if _, err := c.Read(buf); err != nil {
				b.Errorf("read: %v", err)
				return
			}
		}
	})
	sim.Shutdown()
	sim.Wait()
}
