// Package realnet implements the internal/transport interfaces over real
// operating-system UDP/TCP sockets. The daemons in cmd/ (aped, edged, digc)
// and the realnet example use it; experiments use internal/simnet. Both
// run the identical protocol stack.
package realnet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"strconv"
	"sync"
	"time"

	"apecache/internal/transport"
)

// Host is a machine identity bound to one local IP (usually a loopback
// address so several "machines" can coexist in one process).
type Host struct {
	ip string
}

var _ transport.Host = (*Host)(nil)

// NewHost returns a host bound to ip; empty means 127.0.0.1.
func NewHost(ip string) *Host {
	if ip == "" {
		ip = "127.0.0.1"
	}
	return &Host{ip: ip}
}

// Name implements transport.Host.
func (h *Host) Name() string { return h.ip }

// Listen implements transport.Host.
func (h *Host) Listen(port uint16) (transport.Listener, error) {
	l, err := net.Listen("tcp", net.JoinHostPort(h.ip, strconv.Itoa(int(port))))
	if err != nil {
		return nil, fmt.Errorf("realnet listen: %w", err)
	}
	return &listener{l: l}, nil
}

// ListenPacket implements transport.Host.
func (h *Host) ListenPacket(port uint16) (transport.PacketConn, error) {
	pc, err := net.ListenPacket("udp", net.JoinHostPort(h.ip, strconv.Itoa(int(port))))
	if err != nil {
		return nil, fmt.Errorf("realnet listen-packet: %w", err)
	}
	return &packetConn{pc: pc.(*net.UDPConn)}, nil
}

// Now implements transport.Host: real sockets run on the wall clock.
func (h *Host) Now() time.Time { return time.Now() }

// Dial implements transport.Host.
func (h *Host) Dial(remote transport.Addr) (transport.Stream, error) {
	c, err := net.Dial("tcp", remote.String())
	if err != nil {
		return nil, fmt.Errorf("realnet dial: %w", mapErr(err))
	}
	return &stream{c: c}, nil
}

// toAddr converts a net.Addr to a transport.Addr.
func toAddr(a net.Addr) transport.Addr {
	host, portStr, err := net.SplitHostPort(a.String())
	if err != nil {
		return transport.Addr{Host: a.String()}
	}
	port, _ := strconv.Atoi(portStr)
	return transport.Addr{Host: host, Port: uint16(port)}
}

// mapErr converts net errors to transport sentinel errors where possible.
func mapErr(err error) error {
	if err == nil {
		return nil
	}
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return transport.ErrTimeout
	}
	if errors.Is(err, net.ErrClosed) {
		return transport.ErrClosed
	}
	if errors.Is(err, io.EOF) {
		return io.EOF
	}
	return err
}

type listener struct {
	l net.Listener
}

var _ transport.Listener = (*listener)(nil)

func (l *listener) Accept() (transport.Stream, error) {
	c, err := l.l.Accept()
	if err != nil {
		return nil, mapErr(err)
	}
	return &stream{c: c}, nil
}

func (l *listener) Close() error         { return l.l.Close() }
func (l *listener) Addr() transport.Addr { return toAddr(l.l.Addr()) }

type stream struct {
	c           net.Conn
	readTimeout time.Duration
	deadline    bool // a read deadline is armed on c
}

var _ transport.Stream = (*stream)(nil)

// Read re-arms the read deadline on every call while a timeout is set,
// and clears it once on the first read after the timeout is turned off;
// a stream that never had a timeout makes no deadline calls at all.
func (s *stream) Read(p []byte) (int, error) {
	if s.readTimeout > 0 {
		if err := s.c.SetReadDeadline(time.Now().Add(s.readTimeout)); err != nil {
			return 0, mapErr(err)
		}
		s.deadline = true
	} else if s.deadline {
		if err := s.c.SetReadDeadline(time.Time{}); err != nil {
			return 0, mapErr(err)
		}
		s.deadline = false
	}
	n, err := s.c.Read(p)
	if err != nil && !errors.Is(err, io.EOF) {
		err = mapErr(err)
	}
	return n, err
}

func (s *stream) Write(p []byte) (int, error) {
	n, err := s.c.Write(p)
	return n, mapErr(err)
}

func (s *stream) Close() error                   { return s.c.Close() }
func (s *stream) SetReadTimeout(d time.Duration) { s.readTimeout = d }
func (s *stream) LocalAddr() transport.Addr      { return toAddr(s.c.LocalAddr()) }
func (s *stream) RemoteAddr() transport.Addr     { return toAddr(s.c.RemoteAddr()) }

type packetConn struct {
	pc *net.UDPConn
}

var _ transport.PacketConn = (*packetConn)(nil)

// readBufs recycles the maximum-datagram receive buffers: a read borrows
// one for the syscall and hands its caller a right-sized copy, so the heap
// cost of a datagram is its own length rather than 64 KiB.
var readBufs = sync.Pool{New: func() any {
	b := make([]byte, 64<<10)
	return &b
}}

func (p *packetConn) WriteTo(payload []byte, to transport.Addr) error {
	ip, err := netip.ParseAddr(to.Host)
	if err != nil { // not an IP literal: resolve the name
		dst, err := net.ResolveUDPAddr("udp", to.String())
		if err != nil {
			return fmt.Errorf("realnet resolve %s: %w", to, err)
		}
		ip = dst.AddrPort().Addr().Unmap()
	}
	_, err = p.pc.WriteToUDPAddrPort(payload, netip.AddrPortFrom(ip, to.Port))
	return mapErr(err)
}

func (p *packetConn) ReadFrom() (transport.Packet, error) {
	return p.read(0)
}

func (p *packetConn) ReadFromTimeout(d time.Duration) (transport.Packet, error) {
	return p.read(d)
}

func (p *packetConn) read(d time.Duration) (transport.Packet, error) {
	deadline := time.Time{}
	if d > 0 {
		deadline = time.Now().Add(d)
	}
	if err := p.pc.SetReadDeadline(deadline); err != nil {
		return transport.Packet{}, mapErr(err)
	}
	bp := readBufs.Get().(*[]byte)
	defer readBufs.Put(bp)
	n, from, err := p.pc.ReadFromUDPAddrPort(*bp)
	if err != nil {
		return transport.Packet{}, mapErr(err)
	}
	// The copy is what lets the buffer go back to the pool: callers keep
	// Payload past the next read (dnsd.Serve decodes it in a spawned task).
	payload := make([]byte, n)
	copy(payload, *bp)
	return transport.Packet{
		From:    transport.Addr{Host: from.Addr().Unmap().String(), Port: from.Port()},
		Payload: payload,
	}, nil
}

func (p *packetConn) Close() error         { return p.pc.Close() }
func (p *packetConn) Addr() transport.Addr { return toAddr(p.pc.LocalAddr()) }
