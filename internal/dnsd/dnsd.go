// Package dnsd contains the DNS server roles that the APE-CACHE system
// and its baselines run on: an authoritative zone server, a CDN
// redirector (returns the nearest edge per client, as Akamai's DNS does in
// Fig. 1 of the paper), a recursive local resolver (LDNS), and the
// dnsmasq-like caching forwarder that runs on the WiFi AP and that
// internal/apcache extends with DNS-Cache handling.
package dnsd

import (
	"fmt"
	"sync"
	"time"

	"apecache/internal/dnswire"
	"apecache/internal/transport"
	"apecache/internal/vclock"
)

// wireBufs recycles encode buffers across messages (Serve's responses,
// Query's queries). Both transports copy the payload before returning
// (simnet into the delivery queue, realnet into the socket), so a buffer
// can be reused as soon as the write call returns.
var wireBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 2048)
	return &b
}}

// Handler answers one DNS query; from identifies the client (the CDN
// redirector uses it to pick the nearest edge).
type Handler interface {
	HandleDNS(from transport.Addr, query *dnswire.Message) *dnswire.Message
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(from transport.Addr, query *dnswire.Message) *dnswire.Message

// HandleDNS implements Handler.
func (f HandlerFunc) HandleDNS(from transport.Addr, query *dnswire.Message) *dnswire.Message {
	return f(from, query)
}

// Serve reads queries from pc and answers them until pc closes. Each
// query is handled in its own task so a slow recursive resolution does
// not head-of-line-block the socket. Responses larger than the client's
// advertised EDNS payload size are truncated (TC bit), telling the client
// to retry over TCP — which matters here because a DNS-Cache response
// batches flags for every URL of a domain and can outgrow a datagram.
func Serve(env vclock.Env, pc transport.PacketConn, h Handler) {
	for {
		pkt, err := pc.ReadFrom()
		if err != nil {
			return
		}
		env.Go("dnsd.handle", func() {
			query, err := dnswire.Decode(pkt.Payload)
			if err != nil || query.Header.Response {
				return // malformed or not a query: drop, like real servers
			}
			resp := h.HandleDNS(pkt.From, query)
			if resp == nil {
				resp = query.Reply()
				resp.Header.RCode = dnswire.RCodeServerFailure
			}
			bp := wireBufs.Get().(*[]byte)
			defer func() { wireBufs.Put(bp) }()
			wire, err := resp.AppendEncode((*bp)[:0])
			if err != nil {
				return
			}
			if len(wire) > query.UDPSize() {
				wire, err = resp.Truncated().AppendEncode(wire[:0])
				if err != nil {
					return
				}
			}
			*bp = wire // keep any growth for the next query
			_ = pc.WriteTo(wire, pkt.From)
		})
	}
}

// ServeTCP answers DNS-over-TCP queries (2-byte length-prefixed frames,
// RFC 1035 §4.2.2) until the listener closes. TCP responses are never
// truncated.
func ServeTCP(env vclock.Env, l transport.Listener, h Handler) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		env.Go("dnsd.tcp-conn", func() {
			defer conn.Close()
			for {
				payload, err := readTCPFrame(conn)
				if err != nil {
					return
				}
				query, err := dnswire.Decode(payload)
				if err != nil || query.Header.Response {
					return
				}
				resp := h.HandleDNS(conn.RemoteAddr(), query)
				if resp == nil {
					resp = query.Reply()
					resp.Header.RCode = dnswire.RCodeServerFailure
				}
				// Build the RFC 1035 §4.2.2 frame in place: reserve the
				// 2-byte length prefix, encode directly behind it.
				bp := wireBufs.Get().(*[]byte)
				frame := append((*bp)[:0], 0, 0)
				frame, err = resp.AppendEncode(frame)
				if err == nil {
					n := len(frame) - 2
					if n > 0xFFFF {
						err = fmt.Errorf("dnsd: frame %d bytes exceeds TCP framing", n)
					} else {
						frame[0], frame[1] = byte(n>>8), byte(n)
						_, err = conn.Write(frame)
					}
				}
				*bp = frame
				wireBufs.Put(bp)
				if err != nil {
					return
				}
			}
		})
	}
}

// ListenAndServe binds both the UDP and TCP sides of a DNS server on the
// same port and serves until either listener closes. It returns the two
// closers.
func ListenAndServe(env vclock.Env, host transport.Host, port uint16, h Handler) (transport.PacketConn, transport.Listener, error) {
	pc, err := host.ListenPacket(port)
	if err != nil {
		return nil, nil, fmt.Errorf("dnsd: udp: %w", err)
	}
	l, err := host.Listen(port)
	if err != nil {
		pc.Close()
		return nil, nil, fmt.Errorf("dnsd: tcp: %w", err)
	}
	env.Go("dnsd.udp", func() { Serve(env, pc, h) })
	env.Go("dnsd.tcp", func() { ServeTCP(env, l, h) })
	return pc, l, nil
}

// readTCPFrame reads one length-prefixed DNS message.
func readTCPFrame(conn transport.Stream) ([]byte, error) {
	var lenBuf [2]byte
	if err := readFull(conn, lenBuf[:]); err != nil {
		return nil, err
	}
	n := int(lenBuf[0])<<8 | int(lenBuf[1])
	payload := make([]byte, n)
	if err := readFull(conn, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// writeTCPFrame writes one length-prefixed DNS message.
func writeTCPFrame(conn transport.Stream, payload []byte) error {
	if len(payload) > 0xFFFF {
		return fmt.Errorf("dnsd: frame %d bytes exceeds TCP framing", len(payload))
	}
	frame := append([]byte{byte(len(payload) >> 8), byte(len(payload))}, payload...)
	_, err := conn.Write(frame)
	return err
}

// readFull fills buf from the stream.
func readFull(conn transport.Stream, buf []byte) error {
	for off := 0; off < len(buf); {
		n, err := conn.Read(buf[off:])
		if err != nil {
			return err
		}
		off += n
	}
	return nil
}

// DefaultQueryTimeout bounds one UDP question/answer exchange.
const DefaultQueryTimeout = 2 * time.Second

// QueryUDPSize is the EDNS payload size Query advertises.
const QueryUDPSize = 4096

// Query performs one DNS exchange from an ephemeral socket on host. An
// EDNS OPT record advertising QueryUDPSize is added if the query has
// none; a truncated (TC) answer is transparently retried over TCP.
func Query(host transport.Host, server transport.Addr, msg *dnswire.Message, timeout time.Duration) (*dnswire.Message, error) {
	if timeout <= 0 {
		timeout = DefaultQueryTimeout
	}
	if _, hasOPT := findOPT(msg); !hasOPT {
		msg.Additional = append(msg.Additional, dnswire.NewOPT(QueryUDPSize))
	}
	pc, err := host.ListenPacket(0)
	if err != nil {
		return nil, fmt.Errorf("dnsd query: %w", err)
	}
	defer pc.Close()
	bp := wireBufs.Get().(*[]byte)
	defer wireBufs.Put(bp)
	wire, err := msg.AppendEncode((*bp)[:0])
	if err != nil {
		return nil, fmt.Errorf("dnsd query encode: %w", err)
	}
	*bp = wire // keep any growth for the next query
	if err := pc.WriteTo(wire, server); err != nil {
		return nil, fmt.Errorf("dnsd query send: %w", err)
	}
	// One deadline bounds the whole exchange: datagrams that are dropped
	// (garbage, another transaction's ID) must not buy more waiting time.
	deadline := host.Now().Add(timeout)
	for {
		remaining := deadline.Sub(host.Now())
		if remaining <= 0 {
			return nil, fmt.Errorf("dnsd query %s @%s: %w", msg.FirstQuestion().Name, server, transport.ErrTimeout)
		}
		pkt, err := pc.ReadFromTimeout(remaining)
		if err != nil {
			return nil, fmt.Errorf("dnsd query %s @%s: %w", msg.FirstQuestion().Name, server, err)
		}
		resp, err := dnswire.Decode(pkt.Payload)
		if err != nil {
			continue // garbage datagram; keep waiting
		}
		if resp.Header.ID != msg.Header.ID || !resp.Header.Response {
			continue // mismatched transaction
		}
		if resp.Header.Truncated {
			return queryTCP(host, server, wire, msg, timeout)
		}
		return resp, nil
	}
}

// queryTCP retries an exchange over DNS-over-TCP after truncation.
func queryTCP(host transport.Host, server transport.Addr, wire []byte, msg *dnswire.Message, timeout time.Duration) (*dnswire.Message, error) {
	conn, err := host.Dial(server)
	if err != nil {
		return nil, fmt.Errorf("dnsd tcp retry %s @%s: %w", msg.FirstQuestion().Name, server, err)
	}
	defer conn.Close()
	conn.SetReadTimeout(timeout)
	if err := writeTCPFrame(conn, wire); err != nil {
		return nil, fmt.Errorf("dnsd tcp send: %w", err)
	}
	payload, err := readTCPFrame(conn)
	if err != nil {
		return nil, fmt.Errorf("dnsd tcp read: %w", err)
	}
	resp, err := dnswire.Decode(payload)
	if err != nil {
		return nil, fmt.Errorf("dnsd tcp decode: %w", err)
	}
	if resp.Header.ID != msg.Header.ID || !resp.Header.Response {
		return nil, fmt.Errorf("dnsd tcp: transaction mismatch")
	}
	return resp, nil
}

// findOPT locates an EDNS OPT record in the additional section.
func findOPT(msg *dnswire.Message) (dnswire.RR, bool) {
	for _, rr := range msg.Additional {
		if rr.Type == dnswire.TypeOPT {
			return rr, true
		}
	}
	return dnswire.RR{}, false
}

// AddrBook maps hostnames to the synthetic IPv4 addresses handed out in
// DNS answers, and back to transport hosts for dialing. Under realnet the
// mapping is identity (real IPs); under simnet each node gets a synthetic
// address.
type AddrBook struct {
	byName map[string]dnswire.IPv4
	byIP   map[dnswire.IPv4]string
	next   uint32
}

// NewAddrBook returns an empty book allocating from 10.0.0.0/8.
func NewAddrBook() *AddrBook {
	return &AddrBook{
		byName: make(map[string]dnswire.IPv4),
		byIP:   make(map[dnswire.IPv4]string),
		next:   10<<24 + 1,
	}
}

// Assign allocates (or returns) the IP for a node name.
func (b *AddrBook) Assign(node string) dnswire.IPv4 {
	if ip, ok := b.byName[node]; ok {
		return ip
	}
	ip := dnswire.IPv4{byte(b.next >> 24), byte(b.next >> 16), byte(b.next >> 8), byte(b.next)}
	b.next++
	b.byName[node] = ip
	b.byIP[ip] = node
	return ip
}

// NodeFor resolves an IP back to its node name.
func (b *AddrBook) NodeFor(ip dnswire.IPv4) (string, bool) {
	node, ok := b.byIP[ip]
	return node, ok
}

// IPFor returns the IP previously assigned to node.
func (b *AddrBook) IPFor(node string) (dnswire.IPv4, bool) {
	ip, ok := b.byName[node]
	return ip, ok
}
