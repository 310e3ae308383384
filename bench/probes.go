package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"apecache/internal/cachepolicy"
	"apecache/internal/coherence"
	"apecache/internal/dnsd"
	"apecache/internal/dnswire"
	"apecache/internal/httplite"
	"apecache/internal/objstore"
	"apecache/internal/telemetry"
	"apecache/internal/transport"
)

// probeCfg sizes the probes: full for real runs, small for the smoke test.
type probeCfg struct {
	// full is false for runs too short to trust a timing (the smoke test):
	// they skip the checks that depend on one.
	full      bool
	isoTarget time.Duration // time one repetition of an isolated probe aims for
	isoReps   int
	ladderN   int // serial round trips per ladder probe
	relayN    int // publications in the relay probe (a p99 needs >= 1000)
}

func probeCfgFor(measure time.Duration) probeCfg {
	if measure < 3*time.Second {
		return probeCfg{isoTarget: 200 * time.Microsecond, isoReps: 3, ladderN: 20, relayN: 20}
	}
	return probeCfg{full: true, isoTarget: 8 * time.Millisecond, isoReps: 5, ladderN: 1000, relayN: 1000}
}

// cost is what an isolated probe measures per call.
type cost struct{ ns, allocs, bytes float64 }

var sink any // keeps probed calls from being optimised away

// isolated times fn in a tight loop: the loop count is calibrated to
// isoTarget, and the result is the median over isoReps repetitions.
func (cfg probeCfg) isolated(fn func()) cost {
	n := 16
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if el := time.Since(start); el >= cfg.isoTarget/4 || n >= 1<<22 {
			n = int(float64(n)*float64(cfg.isoTarget)/float64(el+1)) + 1
			break
		}
		n *= 4
	}
	var ns, allocs, bytes []float64
	var before, after runtime.MemStats
	for r := 0; r < cfg.isoReps; r++ {
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		el := time.Since(start)
		runtime.ReadMemStats(&after)
		ns = append(ns, float64(el)/float64(n))
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/float64(n))
		bytes = append(bytes, float64(after.TotalAlloc-before.TotalAlloc)/float64(n))
	}
	return cost{median(ns), median(allocs), median(bytes)}
}

// fastMode is the statistic reported for everything measured with one call
// in flight: where the distribution concentrates on its fast side — the
// midpoint of the narrowest interval holding a twentieth of the samples,
// searched among the fastest quarter.
//
// A median does not work there. With a single request outstanding each hop
// may have to wake a parked thread, and on the 2-vCPU sandbox the median of
// identical back-to-back loops moved between 38 and 88 us while their
// fastest tenth stayed within 27-30 us. A plain low quantile does not work
// either: a path whose cost varies per call (an admission that, now and
// then, needs no eviction) has a sliver of cheap samples that a 5th
// percentile falls into on one run and not on the next. The fast mode skips
// the sliver and ignores the wake-up tail; it is the cost of the code on
// the path, which is what a layer metric is for and a budget can add up.
func fastMode(sorted []time.Duration) time.Duration {
	n := len(sorted)
	w := n / 20
	if w == 0 {
		return quantile(sorted, 0.5) // too few samples to look for a mode
	}
	best := 0
	for i := 1; i <= n/4 && i+w < n; i++ {
		if sorted[i+w]-sorted[i] < sorted[best+w]-sorted[best] {
			best = i
		}
	}
	return (sorted[best] + sorted[best+w]) / 2
}

func fastModeUS(sorted []time.Duration) float64 { return us(fastMode(sorted)) }

// ladder runs fn serially, one call in flight, and returns the fast-mode
// latency in microseconds and the bytes allocated per call.
func (cfg probeCfg) ladder(fn func(i int) error) (fastUS, allocBytes float64, err error) {
	lat, bytes, err := cfg.ladderAll(cfg.ladderN, fn)
	if err != nil {
		return 0, 0, err
	}
	return fastModeUS(lat), bytes, nil
}

func (cfg probeCfg) ladderAll(n int, fn func(i int) error) (sorted []time.Duration, allocBytes float64, err error) {
	warm := n / 10
	for i := 0; i < warm; i++ {
		if err := fn(i); err != nil {
			return nil, 0, err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sorted = make([]time.Duration, n)
	for i := range sorted {
		start := time.Now()
		if err := fn(warm + i); err != nil {
			return nil, 0, err
		}
		sorted[i] = time.Since(start)
	}
	runtime.ReadMemStats(&after)
	slices.Sort(sorted)
	return sorted, float64(after.TotalAlloc-before.TotalAlloc) / float64(n), nil
}

// countingWriter discards what it is given and counts the Write calls.
type countingWriter struct{ calls int }

func (w *countingWriter) Write(p []byte) (int, error) { w.calls++; return len(p), nil }

// prober measures one workload's layers on that workload's own, quiescent
// stack, with messages shaped like the ones its generator produces.
type prober struct {
	cfg  probeCfg
	st   *stack
	in   *inputs
	host *trackHost
	http *httplite.Client
	m    map[string]float64

	// The workload's typical DNS-Cache exchange.
	query     *dnswire.Message
	queryWire []byte
	resp      *dnswire.Message
	respWire  []byte

	echoTCP transport.Addr
	rtSrv   transport.Addr // httplite server with a trivial handler
	rtSize  atomic.Int64   // body size the trivial handler answers with
	// Ladder costs by response body size, measured once per size.
	tcpRTT, roundtrip, cacheGet map[int]float64
	putFastUS                   float64 // fast mode of one admission
}

func (o *object) delegateRequest(apHost string) *httplite.Request {
	req := httplite.NewRequest("POST", apHost, "/delegate")
	req.Body = []byte(o.url)
	req.Set("X-Ape-TTL", strconv.Itoa(int(objectTTL/time.Minute)))
	req.Set("X-Ape-Priority", strconv.Itoa(o.priority))
	req.Set("X-Ape-App", appName(o.app))
	return req
}

func cacheQuery(id uint16, domain string, entries []dnswire.CacheEntry) *dnswire.Message {
	q := dnswire.NewQuery(id, domain, dnswire.TypeA)
	q.Additional = append(q.Additional, dnswire.NewCacheRR(domain, dnswire.ClassCacheRequest, entries))
	return q
}

func newProber(st *stack, cfg probeCfg) (*prober, error) {
	p := &prober{cfg: cfg, st: st, in: st.in, host: st.host(false), m: map[string]float64{},
		tcpRTT: map[int]float64{}, roundtrip: map[int]float64{}, cacheGet: map[int]float64{}}
	p.http = httplite.NewClient(p.host)

	domain := p.in.objects[0].domain
	p.query = cacheQuery(0x4242, domain, p.in.entries[domain])
	p.query.Additional = append(p.query.Additional, dnswire.NewOPT(dnsd.QueryUDPSize))
	var err error
	if p.queryWire, err = p.query.Encode(); err != nil {
		return nil, err
	}
	decoded, err := dnswire.Decode(p.queryWire)
	if err != nil {
		return nil, err
	}
	p.resp = st.ap.HandleDNS(transport.Addr{Host: "127.0.0.1", Port: 9}, decoded)
	if p.respWire, err = p.resp.Encode(); err != nil {
		return nil, err
	}
	if err := p.startEchoTCP(); err != nil {
		return nil, err
	}
	// The trivial HTTP server answers behind a mux with as many routes as
	// the AP mounts, so a round trip to it differs from one to the AP only
	// by the AP's handler.
	p.rtSrv, err = st.serve(apShapedMux(httplite.HandlerFunc(func(*httplite.Request) *httplite.Response {
		resp := httplite.NewResponse(200, p.in.probeLarge.body[:p.rtSize.Load()])
		resp.Set("X-Ape-Source", "ap-cache")
		return resp
	})))
	return p, err
}

// apShapedMux mounts h under the nine prefixes the AP's mux carries.
func apShapedMux(h httplite.Handler) *httplite.Mux {
	mux := httplite.NewMux()
	for _, prefix := range []string{"/cache", "/delegate", "/status", coherence.DefaultPurgePath,
		"/metrics", "/debug/vars", "/debug/pprof", "/trace", "/events"} {
		mux.Handle(prefix, h)
	}
	return mux
}

// startEchoTCP runs the benchmark's own TCP responder: it reads a 128-byte
// request whose first four bytes give the reply length and writes that
// many bytes back, on raw net sockets so only the client side is realnet.
func (p *prober) startEchoTCP() error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	p.st.closers = append(p.st.closers, l)
	p.echoTCP = transport.Addr{Host: "127.0.0.1", Port: uint16(l.Addr().(*net.TCPAddr).Port)}
	p.st.env.Go("bench.echo-tcp", func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			p.st.env.Go("bench.echo-tcp-conn", func() {
				defer c.Close()
				req := make([]byte, 128)
				for {
					if _, err := io.ReadFull(c, req); err != nil {
						return
					}
					if _, err := c.Write(p.in.probeLarge.body[:binary.BigEndian.Uint32(req)]); err != nil {
						return
					}
				}
			})
		}
	})
	return nil
}

func (p *prober) set(name string, v float64) { p.m[name] = v }

// run measures every probe-derived per-layer metric.
func (p *prober) run() error {
	steps := []func() error{
		p.codecs, p.httpCodecs, p.storeProbes, p.edgeProbes,
		p.udpLadder, p.dnsLadder, p.httpLadder, p.apLadder, p.coherenceLadder,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

func (p *prober) codecs() error {
	iso := p.cfg.isolated
	p.set("dnswire.encode_query_ns", iso(func() { sink, _ = p.query.Encode() }).ns)
	c := iso(func() { sink, _ = dnswire.Decode(p.queryWire) })
	p.set("dnswire.decode_query_ns", c.ns)
	p.set("dnswire.decode_query_allocs", c.allocs)
	buf := make([]byte, 0, 4096)
	c = iso(func() { sink, _ = p.resp.AppendEncode(buf[:0]) })
	p.set("dnswire.encode_response_ns", c.ns)
	p.set("dnswire.encode_response_allocs", c.allocs)
	c = iso(func() { sink, _ = dnswire.Decode(p.respWire) })
	p.set("dnswire.decode_response_ns", c.ns)
	p.set("dnswire.decode_response_allocs", c.allocs)
	decodedResp, err := dnswire.Decode(p.respWire)
	if err != nil {
		return err
	}
	p.set("dnswire.parse_cache_rr_ns", iso(func() {
		rr, _ := decodedResp.FindCacheRR(dnswire.ClassCacheResponse)
		sink, _ = dnswire.ParseCacheRR(rr)
	}).ns)

	decodedQuery, err := dnswire.Decode(p.queryWire)
	if err != nil {
		return err
	}
	from := transport.Addr{Host: "127.0.0.1", Port: 9}
	c = iso(func() { sink = p.st.ap.HandleDNS(from, decodedQuery) })
	p.set("apcache.handle_dns_ns", c.ns)
	p.set("apcache.handle_dns_allocs", c.allocs)
	return nil
}

func (p *prober) httpCodecs() error {
	iso := p.cfg.isolated
	apHost := p.st.ap.HTTPAddr().Host
	req := httplite.NewRequest("GET", apHost, p.in.objects[0].cachePath)
	var wire bytes.Buffer
	if err := httplite.WriteRequest(&wire, req); err != nil {
		return err
	}
	rd := bytes.NewReader(nil)
	br := bufio.NewReader(rd)
	c := iso(func() {
		rd.Reset(wire.Bytes())
		br.Reset(rd)
		sink, _ = httplite.ReadRequest(br)
	})
	p.set("httplite.read_request_ns", c.ns)
	p.set("httplite.read_request_allocs", c.allocs)
	cw := &countingWriter{}
	p.set("httplite.write_request_ns", iso(func() { _ = httplite.WriteRequest(cw, req) }).ns)

	for _, sz := range []struct {
		name string
		body []byte
	}{{"small", p.in.probeSmall.body}, {"large", p.in.probeLarge.body}} {
		resp := httplite.NewResponse(200, sz.body)
		resp.Set("X-Ape-Source", "ap-cache")
		cw.calls = 0
		calls := 0
		c = iso(func() { _ = httplite.WriteResponse(cw, resp); calls++ })
		p.set("httplite.write_response_"+sz.name+"_ns", c.ns)
		if sz.name == "small" {
			p.set("httplite.write_response_allocs", c.allocs)
			p.set("httplite.write_response_writes", float64(cw.calls)/float64(calls))
		}
		var respWire bytes.Buffer
		if err := httplite.WriteResponse(&respWire, resp); err != nil {
			return err
		}
		c = iso(func() {
			rd.Reset(respWire.Bytes())
			br.Reset(rd)
			sink, _ = httplite.ReadResponse(br)
		})
		p.set("httplite.read_response_"+sz.name+"_ns", c.ns)
		if sz.name == "small" {
			p.set("httplite.read_response_allocs", c.allocs)
		}
	}

	canned := httplite.NewResponse(200, nil)
	mux := apShapedMux(httplite.HandlerFunc(func(*httplite.Request) *httplite.Response { return canned }))
	p.set("httplite.mux_route_ns", iso(func() { sink = mux.ServeHTTP(req) }).ns)
	return nil
}

// storeProbes measures cachepolicy on a replica of the AP's store: same
// policy, capacity and instrumentation, filled with the workload's objects
// in op order until it is as full as the workload makes it.
func (p *prober) storeProbes() error {
	iso := p.cfg.isolated
	env := p.st.env
	store := cachepolicy.NewStore(env, cacheCapacity, 0, cachepolicy.NewPACM(), nil)
	store.Instrument(telemetry.New(env), "apcache")
	meta := func(o *object) *objstore.Object {
		return &objstore.Object{URL: o.url, App: appName(o.app), Size: len(o.body), TTL: objectTTL, Priority: o.priority}
	}
	seq := p.in.ops[0]
	fill := len(seq)
	if limit := 4 * p.in.spec.objects; fill > limit {
		fill = limit
	}
	for _, idx := range seq[:fill] {
		o := p.in.objects[idx]
		store.RecordRequest(appName(o.app))
		if _, ok := store.Get(o.url); !ok {
			_ = store.Put(meta(o), o.body, 200*time.Microsecond)
		}
	}
	resident := p.in.objects[seq[fill-1]]
	p.set("cachepolicy.get_ns", iso(func() { sink, _ = store.Get(resident.url) }).ns)
	p.set("cachepolicy.flag_by_hash_ns", iso(func() { sink = store.FlagByHash(resident.hash) }).ns)
	p.set("cachepolicy.known_hashes_ns", iso(func() { sink = store.KnownHashesForDomain(resident.domain) }).ns)
	app := appName(resident.app)
	p.set("cachepolicy.record_request_ns", iso(func() { store.RecordRequest(app) }).ns)

	// Purge of a resident entry, kept stale (the SWR path) so that it is
	// still resident for the next call; every call needs a higher version.
	version := int64(0)
	p.set("cachepolicy.purge_ns", iso(func() {
		version++
		store.Purge(resident.url, version, false, true)
	}).ns)

	// Admissions as the workload causes them: the op sequence continues,
	// and whatever is not resident is put (evicting at capacity). Each put
	// is timed by itself: the mean is the layer metric, the fast mode what
	// the miss budget adds up (an admission's cost varies with what PACM
	// has to select).
	n, next := 4*p.cfg.ladderN, fill
	puts := make([]time.Duration, n)
	var total time.Duration
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range puts {
		o := p.nextToAdmit(store, &next)
		m := meta(o)
		start := time.Now()
		_ = store.Put(m, o.body, 200*time.Microsecond)
		puts[i] = time.Since(start)
		total += puts[i]
	}
	runtime.ReadMemStats(&after)
	slices.Sort(puts)
	p.putFastUS = fastModeUS(puts)
	p.set("cachepolicy.put_at_capacity_us", us(total)/float64(n))
	p.set("cachepolicy.put_allocs", float64(after.Mallocs-before.Mallocs)/float64(n))
	return nil
}

// nextToAdmit walks client 0's op sequence from *next to the first object
// store does not hold as a fresh hit: what the workload would admit next.
// On an all-hit workload that is simply the next object, and its admission
// a refresh.
func (p *prober) nextToAdmit(store *cachepolicy.Store, next *int) *object {
	seq := p.in.ops[0]
	for {
		o := p.in.objects[seq[*next%len(seq)]]
		*next++
		if p.in.spec.fitsCache() || store.Flag(o.url) != dnswire.FlagCacheHit {
			return o
		}
	}
}

func (p *prober) edgeProbes() error {
	o := p.in.objects[0]
	req := httplite.NewRequest("GET", o.domain, o.path)
	p.set("objstore.edge_serve_ns", p.cfg.isolated(func() { sink = p.st.edge.ServeHTTP(req) }).ns)
	v, _, err := p.cfg.ladder(func(int) error {
		_, err := p.http.Do(p.st.edgeAddr, httplite.NewRequest("GET", o.domain, o.path))
		return err
	})
	p.set("objstore.edge_fetch_us", v)
	return err
}

// udpLadder times a datagram exchange through realnet against the
// benchmark's own responder, with the workload's query and response sizes.
func (p *prober) udpLadder() error {
	srv, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	p.st.closers = append(p.st.closers, srv)
	p.st.env.Go("bench.echo-udp", func() {
		buf := make([]byte, 64<<10)
		for {
			_, from, err := srv.ReadFrom(buf)
			if err != nil {
				return
			}
			_, _ = srv.WriteTo(p.respWire, from)
		}
	})
	addr := transport.Addr{Host: "127.0.0.1", Port: uint16(srv.LocalAddr().(*net.UDPAddr).Port)}
	pc, err := p.host.ListenPacket(0)
	if err != nil {
		return err
	}
	defer pc.Close()
	v, alloc, err := p.cfg.ladder(func(int) error {
		if err := pc.WriteTo(p.queryWire, addr); err != nil {
			return err
		}
		_, err := pc.ReadFromTimeout(time.Second)
		return err
	})
	p.set("realnet.udp_rtt_us", v)
	p.set("realnet.udp_read_alloc_bytes", alloc)
	return err
}

func (p *prober) dnsLadder() error {
	// dnsd.Query <-> dnsd.Serve with a handler that only attaches the
	// precomputed answer: everything dnsd adds to a raw datagram exchange.
	pc, err := p.host.ListenPacket(0)
	if err != nil {
		return err
	}
	p.st.closers = append(p.st.closers, pc)
	answers, additional := p.resp.Answers, p.resp.Additional
	p.st.env.Go("bench.dnsd-trivial", func() {
		dnsd.Serve(p.st.env, pc, dnsd.HandlerFunc(func(_ transport.Addr, q *dnswire.Message) *dnswire.Message {
			r := q.Reply()
			r.Answers, r.Additional = answers, additional
			return r
		}))
	})
	v, alloc, err := p.cfg.ladder(func(int) error {
		_, err := dnsd.Query(p.host, pc.Addr(), p.query, time.Second)
		return err
	})
	if err != nil {
		return err
	}
	p.set("dnsd.query_rtt_us", v)
	p.set("dnsd.query_alloc_bytes", alloc)
	codec := (p.m["dnswire.encode_query_ns"] + p.m["dnswire.decode_query_ns"] +
		p.m["dnswire.encode_response_ns"] + p.m["dnswire.decode_response_ns"]) / 1000
	p.set("dnsd.self_us", v-p.m["realnet.udp_rtt_us"]-codec)

	plain := dnswire.NewQuery(0x1717, plainName, dnswire.TypeA)
	plain.Additional = append(plain.Additional, dnswire.NewOPT(dnsd.QueryUDPSize))
	apDNS := p.st.ap.DNSAddr()
	if v, _, err = p.cfg.ladder(func(int) error {
		r, err := dnsd.Query(p.host, apDNS, plain, time.Second)
		if err == nil && len(r.Answers) == 0 {
			err = fmt.Errorf("plain query for %s: rcode %d, no answer", plainName, r.Header.RCode)
		}
		return err
	}); err != nil {
		return err
	}
	p.set("dnsd.plain_forward_us", v)
	if v, _, err = p.cfg.ladder(func(int) error {
		_, err := dnsd.Query(p.host, apDNS, p.query, time.Second)
		return err
	}); err != nil {
		return err
	}
	p.set("apcache.dns_cache_query_us", v)
	p.set("apcache.dns_cache_delta_us", v-p.m["dnsd.plain_forward_us"])
	return nil
}

// sizes are the body sizes the HTTP ladders run at: the two fixed ones
// behind the exported metrics and the workload's own for the budget.
func (p *prober) sizes() []int {
	out := []int{smallBody, largeBody}
	if sz := p.in.spec.objSize; sz != smallBody && sz != largeBody {
		out = append(out, sz)
	}
	return out
}

func (p *prober) httpLadder() error {
	conn, err := p.host.Dial(p.echoTCP)
	if err != nil {
		return err
	}
	req := make([]byte, 128)
	reply := make([]byte, largeBody)
	apHost := p.st.ap.HTTPAddr().Host
	for _, size := range p.sizes() {
		binary.BigEndian.PutUint32(req, uint32(size))
		v, _, err := p.cfg.ladder(func(int) error {
			if _, err := conn.Write(req); err != nil {
				return err
			}
			for off := 0; off < size; {
				n, err := conn.Read(reply[off:size])
				if err != nil {
					return err
				}
				off += n
			}
			return nil
		})
		if err != nil {
			return err
		}
		p.tcpRTT[size] = v

		p.rtSize.Store(int64(size))
		v, _, err = p.cfg.ladder(func(int) error {
			resp, err := p.http.Do(p.rtSrv, httplite.NewRequest("GET", apHost, p.in.objects[0].cachePath))
			if err == nil && len(resp.Body) != size {
				err = fmt.Errorf("trivial server returned %d bytes, want %d", len(resp.Body), size)
			}
			return err
		})
		if err != nil {
			return err
		}
		p.roundtrip[size] = v
	}
	p.set("realnet.tcp_rtt_small_us", p.tcpRTT[smallBody])
	p.set("realnet.tcp_rtt_large_us", p.tcpRTT[largeBody])
	p.set("httplite.roundtrip_small_us", p.roundtrip[smallBody])
	p.set("httplite.roundtrip_large_us", p.roundtrip[largeBody])
	return nil
}

// do sends req to the AP and requires status.
func (p *prober) do(req *httplite.Request, status int) (*httplite.Response, error) {
	resp, err := p.http.Do(p.st.ap.HTTPAddr(), req)
	if err == nil && resp.Status != status {
		err = fmt.Errorf("%s %s: status %d, want %d", req.Method, req.Path, resp.Status, status)
	}
	return resp, err
}

// hitPathUS is what a /cache hit of a size-byte body costs outside the
// AP's handler: the HTTP round trip (codec, mux, sockets) plus the two
// store calls the handler makes.
func (p *prober) hitPathUS(size int) float64 {
	return p.roundtrip[size] + (p.m["cachepolicy.get_ns"]+p.m["cachepolicy.record_request_ns"])/1000
}

// missPathUS is the same for a /delegate of a size-byte body: round trip,
// request accounting, the edge fetch and the admission.
func (p *prober) missPathUS(size int) float64 {
	return p.roundtrip[size] + p.m["cachepolicy.record_request_ns"]/1000 +
		p.m["objstore.edge_fetch_us"] + p.putFastUS
}

func (p *prober) apLadder() error {
	apHost := p.st.ap.HTTPAddr().Host
	own := p.in.objects[p.in.ops[0][0]]
	for _, o := range []*object{p.in.probeSmall, p.in.probeLarge, own} {
		size := len(o.body)
		if _, done := p.cacheGet[size]; done {
			continue
		}
		if _, err := p.do(o.delegateRequest(apHost), 200); err != nil {
			return err
		}
		v, _, err := p.cfg.ladder(func(int) error {
			resp, err := p.do(httplite.NewRequest("GET", apHost, o.cachePath), 200)
			if err == nil && len(resp.Body) != size {
				err = fmt.Errorf("/cache returned %d bytes, want %d", len(resp.Body), size)
			}
			return err
		})
		if err != nil {
			return err
		}
		p.cacheGet[size] = v
	}
	size := p.in.spec.objSize
	p.set("apcache.cache_get_small_us", p.cacheGet[smallBody])
	p.set("apcache.cache_get_large_us", p.cacheGet[largeBody])
	p.set("apcache.cache_get_self_us", p.cacheGet[size]-p.hitPathUS(size))

	// Delegations as the workload causes them: what the AP no longer holds
	// is delegated (on an all-hit workload every object: the refresh path).
	next := 0
	v, _, err := p.cfg.ladder(func(int) error {
		_, err := p.do(p.nextToAdmit(p.st.ap.Store(), &next).delegateRequest(apHost), 200)
		return err
	})
	if err != nil {
		return err
	}
	p.set("apcache.delegate_us", v)
	p.set("apcache.delegate_self_us", v-p.missPathUS(size))

	// A purge raises the URL's high-water mark for good, so each object is
	// purged once: the sample is as large as the catalog allows.
	n := p.cfg.ladderN
	if n > len(p.in.objects) {
		n = len(p.in.objects)
	}
	for _, o := range p.in.objects[:n] {
		if _, err := p.do(o.delegateRequest(apHost), 200); err != nil {
			return err
		}
	}
	lat, _, err := p.cfg.ladderAll(n*9/10, func(i int) error {
		preq := httplite.NewRequest("POST", apHost, coherence.DefaultPurgePath)
		preq.Body = []byte(fmt.Sprintf(`{"url":%q,"version":%d}`, p.in.objects[i].url, int64(1)<<40))
		_, err := p.do(preq, 200)
		return err
	})
	if err != nil {
		return err
	}
	p.set("apcache.purge_us", fastModeUS(lat))
	return nil
}

// coherenceLadder times publication and relay on a hub of its own with
// one subscriber, an endpoint the benchmark registers and listens on.
func (p *prober) coherenceLadder() error {
	hub := coherence.NewHub(p.st.env, p.st.host(false), nil)
	hubAddr, err := p.st.serve(hub)
	if err != nil {
		return err
	}
	arrived := make(chan time.Time, 1) // one publication in flight at a time
	subAddr, err := p.st.serve(httplite.HandlerFunc(func(*httplite.Request) *httplite.Response {
		arrived <- time.Now()
		return httplite.NewResponse(200, nil)
	}))
	if err != nil {
		return err
	}
	if err := coherence.Subscribe(p.http, hubAddr, subAddr, coherence.DefaultPurgePath); err != nil {
		return err
	}
	n := p.cfg.relayN
	publish := make([]time.Duration, 0, n)
	relay := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := coherence.Publish(p.http, hubAddr, coherence.Msg{URL: "http://" + probeDomain + "/relay", Version: int64(i + 1)}); err != nil {
			return err
		}
		publish = append(publish, time.Since(start))
		select {
		case at := <-arrived:
			relay = append(relay, at.Sub(start))
		case <-time.After(time.Second):
			return fmt.Errorf("relay of publication %d did not arrive within 1s", i)
		}
	}
	slices.Sort(publish)
	slices.Sort(relay)
	p.set("coherence.publish_us", fastModeUS(publish))
	p.set("coherence.relay_p50_us", us(quantile(relay, 0.5)))
	p.set("coherence.relay_p99_us", us(quantile(relay, 0.99)))
	return nil
}
