package apeclient

import (
	"errors"
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"apecache/internal/dnsd"
	"apecache/internal/dnswire"
	"apecache/internal/httplite"
	"apecache/internal/metrics"
	"apecache/internal/telemetry"
	"apecache/internal/transport"
	"apecache/internal/vclock"
)

// DefaultFlagTTL bounds how long piggybacked cache flags stay valid on the
// client: long enough to cover the batched requests of one app execution,
// short enough that the next execution re-queries (cache state may have
// changed).
const DefaultFlagTTL = time.Second

// Config assembles an APE-CACHE client.
type Config struct {
	Env      vclock.Env
	Host     transport.Host
	Registry *Registry
	// APDNS and APHTTP locate the access point's two endpoints.
	APDNS  transport.Addr
	APHTTP transport.Addr
	// EdgeHTTPPort is the port objects are served on at resolved edge
	// IPs (80 throughout the testbed).
	EdgeHTTPPort uint16
	// Book translates resolved IPs back to transport hosts under simnet;
	// nil (realnet) dials the IP directly.
	Book *dnsd.AddrBook
	// Rng provides DNS transaction IDs.
	Rng interface{ Intn(int) int }
	// FlagTTL overrides DefaultFlagTTL when positive.
	FlagTTL time.Duration
	// Telemetry, when set, records client metrics and originates request
	// traces (a trace ID rides the DNS-Cache query and every HTTP hop).
	Telemetry *telemetry.Telemetry
}

// Stats aggregates the client-side measurements the evaluation reports.
type Stats struct {
	// Lookup is the cache-lookup stage latency (Fig 11a).
	Lookup metrics.LatencyStats
	// Retrieval is the cache-retrieval stage latency measured during
	// hits, the paper's Fig 11c definition ("the period from when a
	// request for an object is sent to the cache during a hit").
	Retrieval metrics.LatencyStats
	// Hits tracks AP cache hits by priority class (Tables IV–VI).
	Hits metrics.HitStats
	// StaleAccepts counts requests answered from a purged AP entry under
	// stale-while-revalidate (the one allowed stale serve per purge).
	StaleAccepts int
}

// Client is the enhanced HTTP client library of §IV: it intercepts
// requests for registered cacheable objects and runs the DNS-Cache
// lookup + flag-dispatched fetching workflow; unregistered requests pass
// through to the ordinary resolve-and-fetch path.
type Client struct {
	cfg     Config
	flagTTL time.Duration
	http    *httplite.Client
	tel     *clientTel
	// mu guards the caches, the rng and the stats: the asynchronous
	// API-model calls may run concurrently under the real clock.
	mu    sync.Mutex
	dns   map[string]dnsCacheEntry
	flags map[string]flagCacheEntry
	stats Stats
}

type dnsCacheEntry struct {
	ip     dnswire.IPv4
	expiry time.Time
}

type flagCacheEntry struct {
	flags   []dnswire.CacheEntry
	fetched time.Time
}

// New builds a client.
func New(cfg Config) *Client {
	flagTTL := cfg.FlagTTL
	if flagTTL <= 0 {
		flagTTL = DefaultFlagTTL
	}
	if cfg.EdgeHTTPPort == 0 {
		cfg.EdgeHTTPPort = 80
	}
	return &Client{
		cfg:     cfg,
		flagTTL: flagTTL,
		http:    httplite.NewClient(cfg.Host),
		tel:     newClientTel(cfg.Telemetry),
		dns:     make(map[string]dnsCacheEntry),
		flags:   make(map[string]flagCacheEntry),
	}
}

// Stats exposes the accumulated measurements.
func (c *Client) Stats() *Stats { return &c.stats }

// Get fetches a URL through the APE-CACHE workflow. It returns the object
// body.
func (c *Client) Get(rawURL string) ([]byte, error) {
	basic := dnswire.BasicURL(rawURL)
	cacheable, registered := c.cfg.Registry.Lookup(basic)
	if !registered {
		return c.getPlain(basic)
	}

	domain := dnswire.URLDomain(basic)
	trace := c.newTrace()
	if trace != 0 {
		getStart := c.cfg.Env.Now()
		defer func() {
			c.cfg.Telemetry.Span(trace, "client-get", "client:"+c.cfg.Host.Name(),
				getStart, c.cfg.Env.Now().Sub(getStart), "url="+basic)
		}()
	}

	// Stage 1 — cache lookup (piggybacked DNS-Cache query, §IV-B).
	lookupStart := c.cfg.Env.Now()
	flags, edgeIP, err := c.lookup(domain, trace)
	if err != nil {
		return nil, fmt.Errorf("apeclient: lookup %s: %w", domain, err)
	}
	lookupElapsed := c.cfg.Env.Now().Sub(lookupStart)
	c.mu.Lock()
	c.stats.Lookup.Add(lookupElapsed)
	c.mu.Unlock()
	c.tel.lookup(lookupElapsed)

	flag, h := dnswire.FlagDelegation, dnswire.HashURL(basic)
	for _, e := range flags {
		if e.Hash == h {
			flag = e.Flag // the last entry for a hash wins
		}
	}
	c.mu.Lock()
	c.stats.Hits.Record(cacheable.Priority, flag == dnswire.FlagCacheHit || flag == dnswire.FlagStale)
	if flag == dnswire.FlagStale {
		c.stats.StaleAccepts++
	}
	c.mu.Unlock()
	c.tel.request(flagLabel(flag))
	if flag == dnswire.FlagStale {
		c.tel.staleAccept()
	}

	// Stage 2 — fetching, dispatched on the flag.
	retrievalStart := c.cfg.Env.Now()
	var body []byte
	switch flag {
	case dnswire.FlagCacheHit, dnswire.FlagStale:
		// Stale means the AP still holds a purged copy it may serve once
		// while revalidating in the background — fetch it at hit speed.
		body, err = c.fetchFromAP(basic, trace)
		if err != nil {
			// Races (eviction between lookup and fetch, or the stale
			// allowance spent by a concurrent client) fall back to
			// delegation rather than failing the request.
			body, err = c.delegate(basic, cacheable, trace)
		}
	case dnswire.FlagCacheMiss:
		body, err = c.fetchFromEdge(basic, edgeIP, trace)
	default: // FlagDelegation
		body, err = c.delegate(basic, cacheable, trace)
	}
	if err != nil {
		return nil, err
	}
	elapsed := c.cfg.Env.Now().Sub(retrievalStart)
	if flag == dnswire.FlagCacheHit {
		c.mu.Lock()
		c.stats.Retrieval.Add(elapsed)
		c.mu.Unlock()
	}
	c.tel.retrieval(elapsed)
	return body, nil
}

// lookup returns the cache flags for every URL under domain plus the
// resolved edge IP, using cached state within the flag TTL. When the
// lookup goes to the network and the request is traced, the trace ID
// rides the query as an extra Type-300 RR and the exchange is recorded
// as a dns-lookup span (flag-cache hits never touch the wire, so they
// record nothing).
func (c *Client) lookup(domain string, trace telemetry.TraceID) ([]dnswire.CacheEntry, dnswire.IPv4, error) {
	now := c.cfg.Env.Now()
	c.mu.Lock()
	fc, haveFlags := c.flags[domain]
	dc, haveDNS := c.dns[domain]
	if haveFlags && now.Sub(fc.fetched) < c.flagTTL && haveDNS && now.Before(dc.expiry) {
		c.mu.Unlock()
		return fc.flags, dc.ip, nil
	}
	id := uint16(c.cfg.Rng.Intn(1 << 16))
	c.mu.Unlock()

	// One DNS-Cache request covers the whole batch an execution needs.
	query := dnswire.NewQuery(id, domain, dnswire.TypeA)
	query.Additional = append(query.Additional, c.cfg.Registry.requestRR(domain))
	if trace != 0 {
		query.Additional = append(query.Additional, dnswire.NewTraceRR(domain, uint64(trace)))
	}

	queryStart := c.cfg.Env.Now()
	resp, err := c.queryWithRetry(query)
	if trace != 0 {
		c.cfg.Telemetry.Span(trace, "dns-lookup", "client:"+c.cfg.Host.Name(),
			queryStart, c.cfg.Env.Now().Sub(queryStart), "domain="+domain)
	}
	if err != nil {
		return nil, dnswire.IPv4{}, err
	}

	var flags []dnswire.CacheEntry
	if rr, ok := resp.FindCacheRR(dnswire.ClassCacheResponse); ok {
		if flags, err = dnswire.ParseCacheRR(rr); err != nil {
			return nil, dnswire.IPv4{}, err
		}
	}
	c.mu.Lock()
	c.flags[domain] = flagCacheEntry{flags: flags, fetched: now}

	var ip dnswire.IPv4
	for _, rr := range resp.Answers {
		if rr.Type == dnswire.TypeA && len(rr.Data) == 4 {
			ip = dnswire.IPv4{rr.Data[0], rr.Data[1], rr.Data[2], rr.Data[3]}
			if rr.TTL > 0 && ip != dnswire.DummyIP {
				c.dns[domain] = dnsCacheEntry{ip: ip, expiry: now.Add(time.Duration(rr.TTL) * time.Second)}
			}
			break
		}
	}
	c.mu.Unlock()
	return flags, ip, nil
}

// dnsAttempts bounds DNS retransmissions on timeout, as c-ares does over
// lossy WiFi (each attempt re-sends the query with the same ID).
const dnsAttempts = 3

// queryWithRetry performs a DNS exchange with timeout-driven retries.
func (c *Client) queryWithRetry(query *dnswire.Message) (*dnswire.Message, error) {
	var lastErr error
	for range dnsAttempts {
		resp, err := dnsd.Query(c.cfg.Host, c.cfg.APDNS, query, time.Second)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if !errors.Is(err, transport.ErrTimeout) {
			break
		}
	}
	return nil, lastErr
}

// fetchFromAP retrieves a cached object from the AP (flag = Cache-Hit).
func (c *Client) fetchFromAP(basic string, trace telemetry.TraceID) ([]byte, error) {
	path := "/cache?u=" + url.QueryEscape(basic) + "&app=" + url.QueryEscape(c.cfg.Registry.App())
	req := httplite.NewRequest("GET", c.cfg.APHTTP.Host, path)
	if trace != 0 {
		req.Set(telemetry.TraceHeader, trace.String())
	}
	resp, err := c.http.Do(c.cfg.APHTTP, req)
	if err != nil {
		return nil, fmt.Errorf("apeclient: ap fetch: %w", err)
	}
	if resp.Status != 200 {
		return nil, fmt.Errorf("apeclient: ap fetch %s: status %d", basic, resp.Status)
	}
	return resp.Body, nil
}

// delegate asks the AP to fetch, cache and relay the object
// (flag = Delegation). Declared dependents ride along as prefetch hints.
func (c *Client) delegate(basic string, cb Cacheable, trace telemetry.TraceID) ([]byte, error) {
	req := httplite.NewRequest("POST", c.cfg.APHTTP.Host, "/delegate")
	req.Body = []byte(basic)
	if trace != 0 {
		req.Set(telemetry.TraceHeader, trace.String())
	}
	req.Set("X-Ape-TTL", strconv.Itoa(int(cb.TTL/time.Minute)))
	req.Set("X-Ape-Priority", strconv.Itoa(cb.Priority))
	req.Set("X-Ape-App", c.cfg.Registry.App())
	if hint := c.prefetchHint(basic); hint != "" {
		req.Set("X-Ape-Prefetch", hint)
	}
	resp, err := c.http.Do(c.cfg.APHTTP, req)
	if err != nil {
		return nil, fmt.Errorf("apeclient: delegate: %w", err)
	}
	if resp.Status != 200 {
		return nil, fmt.Errorf("apeclient: delegate %s: status %d", basic, resp.Status)
	}
	return resp.Body, nil
}

// prefetchHint renders the X-Ape-Prefetch header for a root URL's
// declared dependents.
func (c *Client) prefetchHint(basic string) string {
	deps := c.cfg.Registry.Dependents(basic)
	if len(deps) == 0 {
		return ""
	}
	clauses := make([]string, 0, len(deps))
	for _, dep := range deps {
		cb, ok := c.cfg.Registry.Lookup(dep)
		if !ok {
			continue
		}
		clauses = append(clauses, fmt.Sprintf("%s;ttl=%d;priority=%d",
			dep, int(cb.TTL/time.Minute), cb.Priority))
	}
	return strings.Join(clauses, ",")
}

// fetchFromEdge retrieves the object from the resolved edge server
// (flag = Cache-Miss, or unregistered URLs after plain resolution).
func (c *Client) fetchFromEdge(basic string, ip dnswire.IPv4, trace telemetry.TraceID) ([]byte, error) {
	if ip.IsZero() || ip == dnswire.DummyIP {
		return nil, fmt.Errorf("apeclient: no edge address for %s", basic)
	}
	addr := c.edgeAddr(ip)
	req := httplite.NewRequest("GET", dnswire.URLDomain(basic), dnswire.URLPath(basic))
	if trace != 0 {
		req.Set(telemetry.TraceHeader, trace.String())
	}
	resp, err := c.http.Do(addr, req)
	if err != nil {
		return nil, fmt.Errorf("apeclient: edge fetch: %w", err)
	}
	if resp.Status != 200 {
		return nil, fmt.Errorf("apeclient: edge fetch %s: status %d", basic, resp.Status)
	}
	return resp.Body, nil
}

// edgeAddr converts a resolved IP into a dialable transport address.
func (c *Client) edgeAddr(ip dnswire.IPv4) transport.Addr {
	host := ip.String()
	if c.cfg.Book != nil {
		if node, ok := c.cfg.Book.NodeFor(ip); ok {
			host = node
		}
	}
	return transport.Addr{Host: host, Port: c.cfg.EdgeHTTPPort}
}

// InvokeHTTPRequest is the explicit, API-based programming model the
// paper compares against in §V-F: instead of annotating fields, the
// developer rewrites each HTTP call site to pass the cache metadata
// inline. It registers the declaration ad hoc and runs the same workflow
// as Get.
func (c *Client) InvokeHTTPRequest(rawURL string, priority int, ttl time.Duration) ([]byte, error) {
	if err := c.cfg.Registry.Register(Cacheable{ID: rawURL, Priority: priority, TTL: ttl}); err != nil {
		return nil, err
	}
	return c.Get(rawURL)
}

// InvokeHTTPRequestAsync is the asynchronous variant
// (invokeHttpRequestAsync in the paper): the callback receives the result
// from a spawned task.
func (c *Client) InvokeHTTPRequestAsync(rawURL string, priority int, ttl time.Duration, callback func([]byte, error)) {
	c.cfg.Env.Go("apeclient.async", func() {
		callback(c.InvokeHTTPRequest(rawURL, priority, ttl))
	})
}

// getPlain is the untouched path for unregistered URLs: ordinary DNS
// through the AP, then a direct edge fetch.
func (c *Client) getPlain(basic string) ([]byte, error) {
	domain := dnswire.URLDomain(basic)
	now := c.cfg.Env.Now()
	c.mu.Lock()
	dc, ok := c.dns[domain]
	id := uint16(c.cfg.Rng.Intn(1 << 16))
	c.mu.Unlock()
	if !ok || !now.Before(dc.expiry) {
		query := dnswire.NewQuery(id, domain, dnswire.TypeA)
		resp, err := c.queryWithRetry(query)
		if err != nil {
			return nil, fmt.Errorf("apeclient: resolve %s: %w", domain, err)
		}
		ip, found := resp.AnswerA()
		if !found {
			return nil, fmt.Errorf("apeclient: resolve %s: rcode %d", domain, resp.Header.RCode)
		}
		ttl := uint32(20)
		for _, rr := range resp.Answers {
			if rr.Type == dnswire.TypeA {
				ttl = rr.TTL
				break
			}
		}
		dc = dnsCacheEntry{ip: ip, expiry: now.Add(time.Duration(ttl) * time.Second)}
		c.mu.Lock()
		c.dns[domain] = dc
		c.mu.Unlock()
	}
	return c.fetchFromEdge(basic, dc.ip, 0)
}
