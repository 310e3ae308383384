package httplite

import (
	"bufio"
	"fmt"
	"sync"
	"time"

	"apecache/internal/transport"
)

// Client issues HTTP requests over a transport.Host, reusing idle
// keep-alive connections per destination address. The idle pool is
// goroutine-safe so the same client can serve concurrent tasks under the
// real clock; each pooled connection is used by one request at a time.
type Client struct {
	host transport.Host
	// Timeout bounds each response read; zero means wait indefinitely.
	Timeout time.Duration
	mu      sync.Mutex
	idle    map[transport.Addr][]*clientConn
}

type clientConn struct {
	stream transport.Stream
	br     *bufio.Reader
}

// NewClient builds a client dialing from the given host.
func NewClient(host transport.Host) *Client {
	return &Client{host: host, idle: make(map[transport.Addr][]*clientConn)}
}

// Do sends req to addr and returns the fully-read response. Idle pooled
// connections are reused; a request that fails on a reused connection is
// retried once on a fresh one (the peer may have closed it).
func (c *Client) Do(addr transport.Addr, req *Request) (*Response, error) {
	if conn := c.takeIdle(addr); conn != nil {
		resp, err := c.roundTrip(conn, req)
		if err == nil {
			c.putIdle(addr, conn)
			return resp, nil
		}
		conn.stream.Close()
	}
	conn, err := c.dial(addr)
	if err != nil {
		return nil, err
	}
	resp, err := c.roundTrip(conn, req)
	if err != nil {
		conn.stream.Close()
		return nil, err
	}
	c.putIdle(addr, conn)
	return resp, nil
}

// Get issues a GET for host/path.
func (c *Client) Get(addr transport.Addr, host, path string) (*Response, error) {
	return c.Do(addr, NewRequest("GET", host, path))
}

func (c *Client) dial(addr transport.Addr) (*clientConn, error) {
	s, err := c.host.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("httplite: dial %s: %w", addr, err)
	}
	if c.Timeout > 0 {
		s.SetReadTimeout(c.Timeout)
	}
	return &clientConn{stream: s, br: bufio.NewReader(s)}, nil
}

func (c *Client) roundTrip(conn *clientConn, req *Request) (*Response, error) {
	if err := WriteRequest(conn.stream, req); err != nil {
		return nil, err
	}
	resp, err := ReadResponse(conn.br)
	if err != nil {
		return nil, fmt.Errorf("httplite: read response: %w", err)
	}
	return resp, nil
}

func (c *Client) takeIdle(addr transport.Addr) *clientConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	conns := c.idle[addr]
	if len(conns) == 0 {
		return nil
	}
	conn := conns[len(conns)-1]
	c.idle[addr] = conns[:len(conns)-1]
	return conn
}

func (c *Client) putIdle(addr transport.Addr, conn *clientConn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	const maxIdlePerAddr = 4
	if len(c.idle[addr]) >= maxIdlePerAddr {
		conn.stream.Close()
		return
	}
	c.idle[addr] = append(c.idle[addr], conn)
}
