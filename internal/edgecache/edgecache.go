// Package edgecache implements the Edge Cache baseline of the evaluation:
// the classic CDN workflow of Fig. 1 — resolve the cacheable object's
// domain through the DNS hierarchy (via the AP's stock forwarder), then
// retrieve the object from the resolved edge cache server.
package edgecache

import (
	"fmt"
	"time"

	"apecache/internal/dnsd"
	"apecache/internal/dnswire"
	"apecache/internal/httplite"
	"apecache/internal/metrics"
	"apecache/internal/telemetry"
	"apecache/internal/transport"
	"apecache/internal/vclock"
)

// Config assembles an Edge Cache baseline client.
type Config struct {
	Env  vclock.Env
	Host transport.Host
	// DNS is the resolver the client queries (the AP's plain forwarder).
	DNS transport.Addr
	// EdgeHTTPPort is the object port at resolved edge IPs.
	EdgeHTTPPort uint16
	// Book translates resolved IPs to transport hosts under simnet.
	Book *dnsd.AddrBook
	// Rng provides DNS transaction IDs.
	Rng interface{ Intn(int) int }
	// Telemetry, when set, registers baseline latency histograms so the
	// two workflows are comparable on one dashboard.
	Telemetry *telemetry.Telemetry
}

// Stats mirrors the APE-CACHE client measurements for comparison. Every
// Edge Cache fetch is served by the (ample, prepopulated) edge cache, so
// Retrieval covers every fetch.
type Stats struct {
	Lookup    metrics.LatencyStats
	Retrieval metrics.LatencyStats
}

// Client performs the two-stage edge caching workflow.
type Client struct {
	cfg   Config
	http  *httplite.Client
	dns   map[string]dnsEntry
	stats Stats

	lookupS  *telemetry.Histogram
	retrievS *telemetry.Histogram
}

type dnsEntry struct {
	ip     dnswire.IPv4
	expiry time.Time
}

// New builds a client.
func New(cfg Config) *Client {
	if cfg.EdgeHTTPPort == 0 {
		cfg.EdgeHTTPPort = 80
	}
	c := &Client{
		cfg:  cfg,
		http: httplite.NewClient(cfg.Host),
		dns:  make(map[string]dnsEntry),
	}
	if cfg.Telemetry != nil {
		m := cfg.Telemetry.Metrics
		c.lookupS = m.Histogram("edgecache_lookup_seconds", "baseline DNS-lookup stage latency", telemetry.DurationBuckets)
		c.retrievS = m.Histogram("edgecache_retrieval_seconds", "baseline edge-retrieval stage latency", telemetry.DurationBuckets)
	}
	return c
}

// Stats exposes the accumulated measurements.
func (c *Client) Stats() *Stats { return &c.stats }

// Get fetches a URL: DNS cache lookup (stage 1), then edge retrieval
// (stage 2).
func (c *Client) Get(rawURL string) ([]byte, error) {
	basic := dnswire.BasicURL(rawURL)
	domain := dnswire.URLDomain(basic)

	lookupStart := c.cfg.Env.Now()
	ip, err := c.resolve(domain)
	if err != nil {
		return nil, fmt.Errorf("edgecache: resolve %s: %w", domain, err)
	}
	lookupElapsed := c.cfg.Env.Now().Sub(lookupStart)
	c.stats.Lookup.Add(lookupElapsed)
	c.lookupS.ObserveDuration(lookupElapsed)

	retrievalStart := c.cfg.Env.Now()
	host := ip.String()
	if c.cfg.Book != nil {
		if node, ok := c.cfg.Book.NodeFor(ip); ok {
			host = node
		}
	}
	resp, err := c.http.Get(transport.Addr{Host: host, Port: c.cfg.EdgeHTTPPort}, domain, dnswire.URLPath(basic))
	if err != nil {
		return nil, fmt.Errorf("edgecache: fetch %s: %w", basic, err)
	}
	if resp.Status != 200 {
		return nil, fmt.Errorf("edgecache: fetch %s: status %d", basic, resp.Status)
	}
	elapsed := c.cfg.Env.Now().Sub(retrievalStart)
	c.stats.Retrieval.Add(elapsed)
	c.retrievS.ObserveDuration(elapsed)
	return resp.Body, nil
}

// resolve returns the edge IP for a domain, honouring answer TTLs in the
// client-side DNS cache (as c-ares would).
func (c *Client) resolve(domain string) (dnswire.IPv4, error) {
	now := c.cfg.Env.Now()
	if e, ok := c.dns[domain]; ok && now.Before(e.expiry) {
		return e.ip, nil
	}
	query := dnswire.NewQuery(uint16(c.cfg.Rng.Intn(1<<16)), domain, dnswire.TypeA)
	resp, err := dnsd.Query(c.cfg.Host, c.cfg.DNS, query, 0)
	if err != nil {
		return dnswire.IPv4{}, err
	}
	for _, rr := range resp.Answers {
		if rr.Type == dnswire.TypeA && len(rr.Data) == 4 {
			ip := dnswire.IPv4{rr.Data[0], rr.Data[1], rr.Data[2], rr.Data[3]}
			if rr.TTL > 0 {
				c.dns[domain] = dnsEntry{ip: ip, expiry: now.Add(time.Duration(rr.TTL) * time.Second)}
			}
			return ip, nil
		}
	}
	return dnswire.IPv4{}, fmt.Errorf("no A answer (rcode %d)", resp.Header.RCode)
}
