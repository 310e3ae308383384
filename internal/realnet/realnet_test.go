package realnet

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"apecache/internal/transport"
)

func TestStreamEchoOverLoopback(t *testing.T) {
	h := NewHost("")
	l, err := h.Listen(0)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()

	go func() {
		s, err := l.Accept()
		if err != nil {
			return
		}
		defer s.Close()
		buf := make([]byte, 16)
		n, err := s.Read(buf)
		if err != nil {
			return
		}
		_, _ = s.Write(buf[:n])
	}()

	c, err := h.Dial(l.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	buf := make([]byte, 16)
	n, err := c.Read(buf)
	if err != nil || string(buf[:n]) != "ping" {
		t.Fatalf("Read = %q, %v; want ping", buf[:n], err)
	}
}

// packetPair binds two loopback UDP sockets, closed when the test ends.
func packetPair(t *testing.T) (srv, cli transport.PacketConn) {
	t.Helper()
	h := NewHost("")
	for _, pc := range []*transport.PacketConn{&srv, &cli} {
		var err error
		if *pc, err = h.ListenPacket(0); err != nil {
			t.Fatalf("ListenPacket: %v", err)
		}
		t.Cleanup(func() { (*pc).Close() })
	}
	return srv, cli
}

func TestPacketRoundTrip(t *testing.T) {
	srv, cli := packetPair(t)

	if err := cli.WriteTo([]byte("query"), srv.Addr()); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	pkt, err := srv.ReadFromTimeout(2 * time.Second)
	if err != nil || string(pkt.Payload) != "query" {
		t.Fatalf("ReadFrom = %q, %v", pkt.Payload, err)
	}
	if err := srv.WriteTo([]byte("reply"), pkt.From); err != nil {
		t.Fatalf("reply: %v", err)
	}
	back, err := cli.ReadFromTimeout(2 * time.Second)
	if err != nil || string(back.Payload) != "reply" {
		t.Fatalf("reply = %q, %v", back.Payload, err)
	}
}

// TestPacketPayloadsAreIndependent pins the copy behind the pooled receive
// buffer: a packet's payload must not change when later reads reuse the
// buffer it was received into.
func TestPacketPayloadsAreIndependent(t *testing.T) {
	srv, cli := packetPair(t)

	var pkts []transport.Packet
	for i := range 8 {
		if err := cli.WriteTo(bytes.Repeat([]byte{byte('a' + i)}, 100+i), srv.Addr()); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		pkt, err := srv.ReadFromTimeout(2 * time.Second)
		if err != nil {
			t.Fatalf("ReadFrom: %v", err)
		}
		if pkt.From != cli.Addr() {
			t.Errorf("packet %d from %v, want %v", i, pkt.From, cli.Addr())
		}
		pkts = append(pkts, pkt)
	}
	for i, pkt := range pkts {
		if want := bytes.Repeat([]byte{byte('a' + i)}, 100+i); !bytes.Equal(pkt.Payload, want) {
			t.Errorf("packet %d changed after later reads: %q", i, pkt.Payload)
		}
	}
}

// TestPacketWriteToName pins the fallback for destinations that are not IP
// literals: the name is resolved (from the hosts file here).
func TestPacketWriteToName(t *testing.T) {
	h := NewHost("")
	srv, err := h.ListenPacket(0)
	if err != nil {
		t.Fatalf("ListenPacket: %v", err)
	}
	defer srv.Close()
	if err := srv.WriteTo([]byte("self"), transport.Addr{Host: "localhost", Port: srv.Addr().Port}); err != nil {
		t.Fatalf("WriteTo by name: %v", err)
	}
	if pkt, err := srv.ReadFromTimeout(2 * time.Second); err != nil || string(pkt.Payload) != "self" {
		t.Fatalf("ReadFrom = %q, %v", pkt.Payload, err)
	}
}

func TestPacketReadTimeout(t *testing.T) {
	h := NewHost("")
	pc, err := h.ListenPacket(0)
	if err != nil {
		t.Fatalf("ListenPacket: %v", err)
	}
	defer pc.Close()
	if _, err := pc.ReadFromTimeout(30 * time.Millisecond); !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestStreamReadTimeout(t *testing.T) {
	h := NewHost("")
	l, err := h.Listen(0)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()
	go func() {
		s, err := l.Accept()
		if err != nil {
			return
		}
		defer s.Close()
		time.Sleep(300 * time.Millisecond)
	}()
	c, err := h.Dial(l.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	c.SetReadTimeout(30 * time.Millisecond)
	buf := make([]byte, 4)
	if _, err := c.Read(buf); !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

// TestStreamReadTimeoutTurnedOff: after SetReadTimeout(0) a read blocks
// until data arrives, even though the deadline armed by the earlier
// timed-out read has long passed.
func TestStreamReadTimeoutTurnedOff(t *testing.T) {
	h := NewHost("")
	l, err := h.Listen(0)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()
	go func() {
		s, err := l.Accept()
		if err != nil {
			return
		}
		defer s.Close()
		time.Sleep(150 * time.Millisecond)
		_, _ = s.Write([]byte("late"))
		time.Sleep(100 * time.Millisecond)
	}()
	c, err := h.Dial(l.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	c.SetReadTimeout(30 * time.Millisecond)
	buf := make([]byte, 4)
	if _, err := c.Read(buf); !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	c.SetReadTimeout(0)
	n, err := io.ReadFull(c, buf)
	if err != nil || string(buf[:n]) != "late" {
		t.Fatalf("read after turning the timeout off = %q, %v; want \"late\"", buf[:n], err)
	}
}

func TestEOFAfterPeerClose(t *testing.T) {
	h := NewHost("")
	l, err := h.Listen(0)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()
	go func() {
		s, err := l.Accept()
		if err != nil {
			return
		}
		_, _ = s.Write([]byte("bye"))
		s.Close()
	}()
	c, err := h.Dial(l.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	data, err := io.ReadAll(c)
	if err != nil || string(data) != "bye" {
		t.Fatalf("ReadAll = %q, %v", data, err)
	}
}
