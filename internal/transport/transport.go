// Package transport defines the narrow networking interfaces that all
// APE-CACHE protocol code is written against. Two implementations exist:
// internal/simnet (discrete-event simulated links under a virtual clock)
// and internal/realnet (real UDP/TCP sockets), so the identical DNS, HTTP
// and caching logic runs both in reproducible experiments and in the
// real-socket daemons.
package transport

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Addr identifies an endpoint: a host (simulated node name or IP string)
// plus a port.
type Addr struct {
	Host string
	Port uint16
}

// String renders host:port.
func (a Addr) String() string { return fmt.Sprintf("%s:%d", a.Host, a.Port) }

// ParseAddr is the inverse of Addr.String: it splits "host:port" at the
// last colon (so the host may itself contain colons) and requires a port
// in 1..65535.
func ParseAddr(s string) (Addr, error) {
	i := strings.LastIndexByte(s, ':')
	if i < 0 {
		return Addr{}, fmt.Errorf("missing port in %q", s)
	}
	port, err := strconv.Atoi(s[i+1:])
	if err != nil || port < 1 || port > 65535 {
		return Addr{}, fmt.Errorf("bad port in %q", s)
	}
	return Addr{Host: s[:i], Port: uint16(port)}, nil
}

// IsZero reports whether the address is unset.
func (a Addr) IsZero() bool { return a.Host == "" && a.Port == 0 }

// Common transport errors. Implementations wrap or return these so callers
// can match with errors.Is.
var (
	// ErrClosed indicates the endpoint (or its network) was closed.
	ErrClosed = errors.New("transport: closed")
	// ErrTimeout indicates a read deadline expired.
	ErrTimeout = errors.New("transport: timeout")
	// ErrRefused indicates no listener at the dialed address.
	ErrRefused = errors.New("transport: connection refused")
	// ErrAddrInUse indicates the requested port is already bound.
	ErrAddrInUse = errors.New("transport: address already in use")
)

// Stream is a reliable, ordered byte stream (TCP-like).
type Stream interface {
	// Read fills p with available bytes, blocking until at least one byte
	// arrives, the peer closes (io.EOF), or the read timeout set via
	// SetReadTimeout expires (ErrTimeout).
	Read(p []byte) (int, error)
	// Write queues p for delivery. It never blocks on the receiver under
	// simnet (socket-buffer semantics) and follows TCP under realnet.
	Write(p []byte) (int, error)
	// Close tears down both directions. Pending peer reads drain buffered
	// data then observe io.EOF.
	Close() error
	// SetReadTimeout bounds each subsequent Read; zero disables.
	SetReadTimeout(d time.Duration)
	// LocalAddr and RemoteAddr identify the endpoints.
	LocalAddr() Addr
	RemoteAddr() Addr
}

// Listener accepts inbound streams on a bound port.
type Listener interface {
	Accept() (Stream, error)
	Close() error
	Addr() Addr
}

// Packet is one received datagram.
type Packet struct {
	From    Addr
	Payload []byte
}

// PacketConn sends and receives datagrams (UDP-like).
type PacketConn interface {
	// WriteTo sends payload to the destination. Delivery is best-effort.
	WriteTo(payload []byte, to Addr) error
	// ReadFrom blocks for the next datagram.
	ReadFrom() (Packet, error)
	// ReadFromTimeout is ReadFrom with a deadline; d <= 0 means block.
	ReadFromTimeout(d time.Duration) (Packet, error)
	Close() error
	Addr() Addr
}

// Host is one machine's view of the network: it can bind ports and dial
// out. Simulated nodes and real network stacks both satisfy it.
type Host interface {
	// Name returns the host identity (node name or IP).
	Name() string
	// Listen binds a TCP-like listener. Port 0 picks an ephemeral port.
	Listen(port uint16) (Listener, error)
	// ListenPacket binds a UDP-like socket. Port 0 picks an ephemeral port.
	ListenPacket(port uint16) (PacketConn, error)
	// Dial opens a stream to the remote address.
	Dial(remote Addr) (Stream, error)
	// Now reads the clock the host's timeouts run on (virtual under
	// simnet), so a deadline spanning several reads can be kept.
	Now() time.Time
}
