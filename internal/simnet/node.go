package simnet

import (
	"fmt"
	"time"

	"apecache/internal/transport"
	"apecache/internal/vclock"
)

// Node is one simulated machine. It implements transport.Host.
type Node struct {
	net       *Network
	name      string
	listeners map[uint16]*listener
	packets   map[uint16]*packetConn
	ephemeral uint16
}

var _ transport.Host = (*Node)(nil)

// Name implements transport.Host.
func (nd *Node) Name() string { return nd.name }

// Now implements transport.Host on the simulation's virtual clock.
func (nd *Node) Now() time.Time { return nd.net.sim.Now() }

// Addr returns the node's address with the given port.
func (nd *Node) Addr(port uint16) transport.Addr {
	return transport.Addr{Host: nd.name, Port: port}
}

// nextEphemeral allocates a fresh ephemeral port.
func (nd *Node) nextEphemeral() uint16 {
	for {
		nd.ephemeral++
		if nd.ephemeral < 49152 {
			nd.ephemeral = 49152
		}
		p := nd.ephemeral
		if _, tcp := nd.listeners[p]; tcp {
			continue
		}
		if _, udp := nd.packets[p]; udp {
			continue
		}
		return p
	}
}

// Listen implements transport.Host.
func (nd *Node) Listen(port uint16) (transport.Listener, error) {
	if port == 0 {
		port = nd.nextEphemeral()
	} else if _, ok := nd.listeners[port]; ok {
		return nil, fmt.Errorf("listen %s:%d: %w", nd.name, port, transport.ErrAddrInUse)
	}
	l := &listener{
		node: nd,
		addr: nd.Addr(port),
		backlog: vclock.NewQueue[*stream](nd.net.sim,
			fmt.Sprintf("accept:%s:%d", nd.name, port)),
	}
	nd.listeners[port] = l
	return l, nil
}

// ListenPacket implements transport.Host.
func (nd *Node) ListenPacket(port uint16) (transport.PacketConn, error) {
	if port == 0 {
		port = nd.nextEphemeral()
	} else if _, ok := nd.packets[port]; ok {
		return nil, fmt.Errorf("listen-packet %s:%d: %w", nd.name, port, transport.ErrAddrInUse)
	}
	pc := &packetConn{
		node: nd,
		addr: nd.Addr(port),
		inbox: vclock.NewQueue[transport.Packet](nd.net.sim,
			fmt.Sprintf("udp:%s:%d", nd.name, port)),
	}
	nd.packets[port] = pc
	return pc, nil
}

// Dial implements transport.Host: it performs a TCP-like handshake costing
// one round trip of virtual time before the stream is established.
func (nd *Node) Dial(remote transport.Addr) (transport.Stream, error) {
	fwd := nd.net.PathBetween(nd.name, remote.Host)
	back := nd.net.PathBetween(remote.Host, nd.name)
	sim := nd.net.sim

	// SYN travels to the server.
	sim.Sleep(fwd.sample(nd.net.rng))

	remoteNode, ok := nd.net.nodes[remote.Host]
	var l *listener
	if ok {
		l = remoteNode.listeners[remote.Port]
	}
	if l == nil || l.closed {
		// RST travels back.
		sim.Sleep(back.sample(nd.net.rng))
		return nil, fmt.Errorf("dial %s: %w", remote, transport.ErrRefused)
	}

	local := transport.Addr{Host: nd.name, Port: nd.nextEphemeral()}
	c2s := newPipe(nd.net, nd.name, remote.Host)
	s2c := newPipe(nd.net, remote.Host, nd.name)
	client := &stream{net: nd.net, local: local, remote: remote, in: s2c, out: c2s}
	server := &stream{net: nd.net, local: remote, remote: local, in: c2s, out: s2c}
	l.backlog.Push(server)

	// SYN-ACK travels back; the client may then send immediately.
	sim.Sleep(back.sample(nd.net.rng))
	return client, nil
}

// listener implements transport.Listener.
type listener struct {
	node    *Node
	addr    transport.Addr
	backlog *vclock.Queue[*stream]
	closed  bool
}

var _ transport.Listener = (*listener)(nil)

func (l *listener) Accept() (transport.Stream, error) {
	s, err := l.backlog.Pop()
	if err != nil {
		return nil, mapQueueErr(err)
	}
	return s, nil
}

func (l *listener) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	delete(l.node.listeners, l.addr.Port)
	l.backlog.Close()
	return nil
}

func (l *listener) Addr() transport.Addr { return l.addr }
