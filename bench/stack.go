package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"apecache/internal/apcache"
	"apecache/internal/coherence"
	"apecache/internal/dnsd"
	"apecache/internal/dnswire"
	"apecache/internal/httplite"
	"apecache/internal/objstore"
	"apecache/internal/realnet"
	"apecache/internal/telemetry"
	"apecache/internal/transport"
)

// benchEnv is the wall clock with two additions vclock.Real lacks: Sleep
// returns early once the round is shut down (the AP's sweeper otherwise
// sleeps a minute past ap.Stop), and shutdown waits for every task the
// stack spawned, which is how a leaked goroutine is caught.
type benchEnv struct {
	wg   sync.WaitGroup
	done chan struct{}
}

func newEnv() *benchEnv { return &benchEnv{done: make(chan struct{})} }

func (e *benchEnv) Now() time.Time { return time.Now() }

func (e *benchEnv) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-e.done:
	}
}

func (e *benchEnv) Go(_ string, fn func()) {
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		fn()
	}()
}

// shutdown wakes every sleeper and waits for all spawned tasks to return.
func (e *benchEnv) shutdown(timeout time.Duration) error {
	close(e.done)
	idle := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("tasks still running %v after shutdown", timeout)
	}
}

// trackHost is a realnet host that remembers every stream it dialed, so a
// round can close the keep-alive connections that apeclient, the AP's edge
// client and the hub pool privately (their servers' connection tasks exit
// on the resulting EOF). With sniff set it also counts the /cache requests
// answered 200: the client-side hit count, taken at the socket and
// therefore independent of the AP's own counters.
type trackHost struct {
	transport.Host
	sniff    bool
	cache200 atomic.Int64

	mu      sync.Mutex
	streams []transport.Stream
}

func newTrackHost(sniff bool) *trackHost {
	return &trackHost{Host: realnet.NewHost(""), sniff: sniff}
}

func (h *trackHost) Dial(remote transport.Addr) (transport.Stream, error) {
	s, err := h.Host.Dial(remote)
	if err != nil {
		return nil, err
	}
	if h.sniff {
		s = &sniffStream{Stream: s, host: h}
	}
	h.mu.Lock()
	h.streams = append(h.streams, s)
	h.mu.Unlock()
	return s, nil
}

func (h *trackHost) closeAll() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, s := range h.streams {
		s.Close() // closing twice is harmless
	}
	h.streams = nil
}

// sniffStream watches one keep-alive client connection. httplite writes a
// request head in a single Write and, with one request in flight, the
// next Read starts at the status line.
type sniffStream struct {
	transport.Stream
	host     *trackHost
	cacheGet bool // the request in flight is GET /cache
	atStatus bool // the next Read begins a response
}

var (
	cacheGetPrefix = []byte("GET /cache?")
	getPrefix      = []byte("GET ")
	postPrefix     = []byte("POST ")
)

func (s *sniffStream) Write(p []byte) (int, error) {
	if bytes.HasPrefix(p, getPrefix) || bytes.HasPrefix(p, postPrefix) {
		s.cacheGet = bytes.HasPrefix(p, cacheGetPrefix)
		s.atStatus = true
	}
	return s.Stream.Write(p)
}

func (s *sniffStream) Read(p []byte) (int, error) {
	n, err := s.Stream.Read(p)
	if s.atStatus && n > 0 {
		s.atStatus = false
		// "HTTP/1.1 200 ..."
		if s.cacheGet && n >= 12 && p[9] == '2' && p[10] == '0' && p[11] == '0' {
			s.host.cache200.Add(1)
		}
	}
	return n, err
}

// versionedOrigin is the purge-mix origin: it serves each object's current
// version from the benchmark-owned state, with ETag and 304 handling like
// objstore.OriginServer.
type versionedOrigin struct{ in *inputs }

func (o versionedOrigin) ServeHTTP(req *httplite.Request) *httplite.Response {
	obj, ok := o.in.byHostPath[dnswire.CanonicalName(req.Host)+dnswire.BasicURL(req.Path)]
	if !ok || obj.ver == nil {
		return httplite.NewResponse(404, []byte("unknown object"))
	}
	v := obj.ver.cur.Load()
	if req.Get("If-None-Match") == v.etag {
		resp := httplite.NewResponse(304, nil)
		resp.Set("ETag", v.etag)
		return resp
	}
	resp := httplite.NewResponse(200, v.body)
	resp.Set("ETag", v.etag)
	return resp
}

// fillGuard holds an object's fill lock shared while the edge serves it,
// so an origin bump never overlaps an edge fill of the same object. Without
// it a fill that read version v, then lost the race against the bump's
// edge invalidation, pins v in the edge until the next purge — a staleness
// hole in the system the benchmark documents but must not trip over.
type fillGuard struct {
	edge httplite.Handler
	in   *inputs
}

func (g fillGuard) ServeHTTP(req *httplite.Request) *httplite.Response {
	if obj, ok := g.in.byHostPath[dnswire.CanonicalName(req.Host)+dnswire.BasicURL(req.Path)]; ok && obj.ver != nil {
		obj.ver.fill.RLock()
		defer obj.ver.fill.RUnlock()
	}
	return g.edge.ServeHTTP(req)
}

// plainName resolves at the stack's upstream DNS server; the plain-forward
// probe queries it through the AP.
const plainName = "plain.bench.example"

// stack is one fresh origin + edge (+ hub) + AP on 127.0.0.1.
type stack struct {
	env  *benchEnv
	in   *inputs
	ap   *apcache.AP
	edge *objstore.EdgeCacheServer
	hub  *coherence.Hub // nil unless the workload runs a coherence mode

	edgeAddr transport.Addr
	hosts    []*trackHost
	closers  []interface{ Close() error }
}

func (st *stack) host(sniff bool) *trackHost {
	h := newTrackHost(sniff)
	st.hosts = append(st.hosts, h)
	return h
}

// serve runs handler on a fresh ephemeral port.
func (st *stack) serve(handler httplite.Handler) (transport.Addr, error) {
	l, err := st.host(false).Listen(0)
	if err != nil {
		return transport.Addr{}, err
	}
	st.closers = append(st.closers, l)
	srv := httplite.NewServer(st.env, handler)
	st.env.Go("bench.server", func() { srv.Serve(l) })
	return l.Addr(), nil
}

// freePort asks the kernel for a port that is free right now for TCP and
// checks UDP too, because the AP binds both on its DNS port.
func freePort() (uint16, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	pc, err := net.ListenPacket("udp", fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		return 0, err
	}
	pc.Close()
	return uint16(port), nil
}

func startStack(in *inputs) (*stack, error) {
	st := &stack{env: newEnv(), in: in}
	if err := st.start(); err != nil {
		st.stop()
		return nil, err
	}
	return st, nil
}

func (st *stack) start() error {
	env, in := st.env, st.in
	tel := telemetry.New(env)

	var origin httplite.Handler = objstore.NewOriginServer(env, in.catalog)
	if in.spec.purgeEvery > 0 {
		origin = versionedOrigin{in}
	}
	originAddr, err := st.serve(origin)
	if err != nil {
		return fmt.Errorf("origin: %w", err)
	}

	st.edge = objstore.NewEdgeCacheServer(env, st.host(false), in.catalog, originAddr)
	st.edge.Instrument(tel)
	st.edge.Prepopulate()
	var edge httplite.Handler = st.edge
	if in.spec.coherence != coherence.ModeOff {
		st.hub = coherence.NewHub(env, st.host(false), func(m coherence.Msg) { st.edge.Invalidate(m.URL) })
		st.hub.Instrument(tel)
		edge = st.hub.Wrap(fillGuard{edge: st.edge, in: in})
	}
	if st.edgeAddr, err = st.serve(edge); err != nil {
		return fmt.Errorf("edge: %w", err)
	}

	upstream := dnsd.NewAuthoritative(env)
	upstream.Add(dnswire.NewA(plainName, 3600, dnswire.IPv4{192, 0, 2, 1}))
	pc, l, err := dnsd.ListenAndServe(env, st.host(false), 0, upstream)
	if err != nil {
		return fmt.Errorf("upstream dns: %w", err)
	}
	st.closers = append(st.closers, pc, l)

	// The AP needs explicit ports; another process may take a probed port
	// before the AP binds it, so retry with a fresh pair.
	apHost := st.host(false)
	for attempt := 0; ; attempt++ {
		dnsPort, err := freePort()
		if err != nil {
			return err
		}
		httpPort, err := freePort()
		if err != nil {
			return err
		}
		ap := apcache.New(apcache.Config{
			Env: env, Host: apHost,
			Upstream:      pc.Addr(),
			EdgeAddr:      st.edgeAddr,
			CacheCapacity: cacheCapacity,
			Rng:           rand.New(rand.NewSource(1)),
			DNSPort:       dnsPort,
			HTTPPort:      httpPort,
			Coherence:     in.spec.coherence,
		})
		if err = ap.Start(); err == nil {
			st.ap = ap
			return nil
		}
		if attempt == 8 {
			return fmt.Errorf("ap: %w", err)
		}
	}
}

// stop tears the stack down and waits until every task it spawned has
// returned; a task that does not is reported as a leak.
func (st *stack) stop() error {
	if st.ap != nil {
		st.ap.Stop()
	}
	for _, c := range st.closers {
		c.Close()
	}
	for _, h := range st.hosts {
		h.closeAll()
	}
	return st.env.shutdown(5 * time.Second)
}

// settleGoroutines waits for the goroutine count to return to baseline
// (an exiting goroutine is still counted for a moment after its
// WaitGroup.Done) and reports a leak if it does not.
func settleGoroutines(baseline int) error {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return nil
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("goroutine leak: %d running, baseline %d\n%s", n, baseline, buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
