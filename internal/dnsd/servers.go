package dnsd

import (
	"sync"
	"sync/atomic"
	"time"

	"apecache/internal/dnswire"
	"apecache/internal/transport"
	"apecache/internal/vclock"
)

// Authoritative is a zone server: it owns a set of records and answers
// queries for them (e.g. Apple's ADNS returning the edgekey CNAME in the
// paper's Fig. 1 workflow).
type Authoritative struct {
	records map[string][]dnswire.RR
	// ProcessingDelay models server-side handling time per query.
	ProcessingDelay time.Duration
	env             vclock.Env
}

var _ Handler = (*Authoritative)(nil)

// NewAuthoritative builds an empty zone server.
func NewAuthoritative(env vclock.Env) *Authoritative {
	return &Authoritative{records: make(map[string][]dnswire.RR), env: env}
}

// Add installs a record.
func (a *Authoritative) Add(rr dnswire.RR) {
	name := dnswire.CanonicalName(rr.Name)
	a.records[name] = append(a.records[name], rr)
}

// HandleDNS implements Handler.
func (a *Authoritative) HandleDNS(_ transport.Addr, query *dnswire.Message) *dnswire.Message {
	if a.ProcessingDelay > 0 {
		a.env.Sleep(a.ProcessingDelay)
	}
	q := query.FirstQuestion()
	resp := query.Reply()
	resp.Header.Authoritative = true
	name := dnswire.CanonicalName(q.Name)

	rrs := a.records[name]
	if len(rrs) == 0 {
		resp.Header.RCode = dnswire.RCodeNameError
		return resp
	}
	for _, rr := range rrs {
		if rr.Type == q.Type || rr.Type == dnswire.TypeCNAME {
			resp.Answers = append(resp.Answers, rr)
		}
	}
	if len(resp.Answers) == 0 {
		// Name exists but not for this type: NOERROR with empty answer.
		return resp
	}
	return resp
}

// CDNRedirector is the CDN's DNS service: it answers A queries for CDN
// hostnames with the edge server nearest to the querying resolver, the
// way Akamai maps clients to caches.
type CDNRedirector struct {
	env vclock.Env
	// nearest maps the querying host (LDNS node name) to the edge IP it
	// should receive; Fallback is used for unknown sources (or a zero
	// value to answer NXDOMAIN, modelling regions with no cache — the
	// paper's Yahoo-in-São-Paulo case).
	nearest         map[string]dnswire.IPv4
	Fallback        dnswire.IPv4
	TTL             uint32
	ProcessingDelay time.Duration
}

var _ Handler = (*CDNRedirector)(nil)

// NewCDNRedirector builds a redirector with the given answer TTL.
func NewCDNRedirector(env vclock.Env, ttl uint32) *CDNRedirector {
	return &CDNRedirector{env: env, nearest: make(map[string]dnswire.IPv4), TTL: ttl}
}

// SetNearest declares the edge IP answered to queries arriving from the
// given node.
func (c *CDNRedirector) SetNearest(fromNode string, edge dnswire.IPv4) {
	c.nearest[fromNode] = edge
}

// HandleDNS implements Handler.
func (c *CDNRedirector) HandleDNS(from transport.Addr, query *dnswire.Message) *dnswire.Message {
	if c.ProcessingDelay > 0 {
		c.env.Sleep(c.ProcessingDelay)
	}
	q := query.FirstQuestion()
	resp := query.Reply()
	ip, ok := c.nearest[from.Host]
	if !ok {
		ip = c.Fallback
	}
	if ip.IsZero() {
		resp.Header.RCode = dnswire.RCodeNameError
		return resp
	}
	resp.Answers = append(resp.Answers, dnswire.NewA(q.Name, c.TTL, ip))
	return resp
}

// cacheEntry is one cached RRset on a resolver or forwarder.
type cacheEntry struct {
	answers []dnswire.RR
	expiry  time.Time
}

// Resolver is a recursive local resolver (the LDNS of Fig. 1): it owns a
// delegation table mapping domain suffixes to authoritative servers,
// chases CNAME chains across zones, and caches answers by TTL.
type Resolver struct {
	env  vclock.Env
	host transport.Host
	rng  interface{ Intn(int) int }
	// mu guards the caches and the rng: dnsd.Serve handles queries on
	// concurrent tasks.
	mu    sync.Mutex
	cache map[string]cacheEntry
	// negative caches NXDOMAIN results (RFC 2308 negative caching) so a
	// misbehaving client cannot hammer the authoritative chain.
	negative map[string]time.Time
	// delegations maps a domain suffix to the server to ask.
	delegations map[string]transport.Addr
	// ProcessingDelay models per-query handling time.
	ProcessingDelay time.Duration
	// QueryTimeout bounds each upstream exchange.
	QueryTimeout time.Duration
	// NegativeTTL bounds how long NXDOMAIN answers are cached (default
	// 30 s).
	NegativeTTL time.Duration
}

var _ Handler = (*Resolver)(nil)

// NewResolver builds a resolver that sends upstream queries from host.
func NewResolver(env vclock.Env, host transport.Host, rng interface{ Intn(int) int }) *Resolver {
	return &Resolver{
		env:         env,
		host:        host,
		rng:         rng,
		cache:       make(map[string]cacheEntry),
		negative:    make(map[string]time.Time),
		delegations: make(map[string]transport.Addr),
		NegativeTTL: 30 * time.Second,
	}
}

// Delegate declares that names under suffix are served by server.
func (r *Resolver) Delegate(suffix string, server transport.Addr) {
	r.delegations[dnswire.CanonicalName(suffix)] = server
}

// serverFor finds the longest delegation suffix covering name.
func (r *Resolver) serverFor(name string) (transport.Addr, bool) {
	name = dnswire.CanonicalName(name)
	for n := name; n != ""; {
		if addr, ok := r.delegations[n]; ok {
			return addr, true
		}
		if i := indexByte(n, '.'); i >= 0 {
			n = n[i+1:]
		} else {
			n = ""
		}
	}
	addr, ok := r.delegations[""]
	return addr, ok
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

// maxChainDepth bounds CNAME chasing.
const maxChainDepth = 8

// Resolve returns the answer RRset for an A query on name, following
// CNAME chains. Each chain step is cached independently under its own
// TTL, so a long-lived CNAME (e.g. www.apple.com → edgekey, TTL 300 s)
// stays warm while the CDN's short-TTL A record is re-fetched — exactly
// the steady state real resolvers reach against CDNs.
func (r *Resolver) Resolve(name string) ([]dnswire.RR, dnswire.RCode, error) {
	var chain []dnswire.RR
	current := dnswire.CanonicalName(name)
	r.mu.Lock()
	if until, ok := r.negative[current]; ok {
		if r.env.Now().Before(until) {
			r.mu.Unlock()
			return nil, dnswire.RCodeNameError, nil
		}
		delete(r.negative, current)
	}
	r.mu.Unlock()
	for range maxChainDepth {
		r.mu.Lock()
		e, ok := r.cache[current]
		r.mu.Unlock()
		if ok && r.env.Now().Before(e.expiry) {
			chain = append(chain, e.answers...)
			if hasA(e.answers) {
				return chain, dnswire.RCodeSuccess, nil
			}
			if cname, ok := lastCNAME(e.answers); ok {
				current = cname
				continue
			}
			return chain, dnswire.RCodeSuccess, nil
		}

		server, ok := r.serverFor(current)
		if !ok {
			return nil, dnswire.RCodeNameError, nil
		}
		r.mu.Lock()
		id := uint16(r.rng.Intn(1 << 16))
		r.mu.Unlock()
		q := dnswire.NewQuery(id, current, dnswire.TypeA)
		resp, err := Query(r.host, server, q, r.QueryTimeout)
		if err != nil {
			return nil, dnswire.RCodeServerFailure, err
		}
		if resp.Header.RCode != dnswire.RCodeSuccess {
			if resp.Header.RCode == dnswire.RCodeNameError && r.NegativeTTL > 0 {
				r.mu.Lock()
				r.negative[current] = r.env.Now().Add(r.NegativeTTL)
				r.mu.Unlock()
			}
			return nil, resp.Header.RCode, nil
		}
		r.store(current, resp.Answers)
		chain = append(chain, resp.Answers...)
		if hasA(resp.Answers) {
			return chain, dnswire.RCodeSuccess, nil
		}
		cname, hasCNAME := lastCNAME(resp.Answers)
		if !hasCNAME {
			return chain, dnswire.RCodeSuccess, nil
		}
		current = cname
	}
	return nil, dnswire.RCodeServerFailure, nil
}

func hasA(answers []dnswire.RR) bool {
	for _, rr := range answers {
		if rr.Type == dnswire.TypeA {
			return true
		}
	}
	return false
}

func lastCNAME(answers []dnswire.RR) (string, bool) {
	for i := len(answers) - 1; i >= 0; i-- {
		if answers[i].Type == dnswire.TypeCNAME {
			target, err := answers[i].CNAMETarget()
			if err == nil {
				return target, true
			}
		}
	}
	return "", false
}

// store caches one chain step under the minimum TTL of its answers.
func (r *Resolver) store(name string, answers []dnswire.RR) {
	if len(answers) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	minTTL := answers[0].TTL
	for _, rr := range answers {
		if rr.TTL < minTTL {
			minTTL = rr.TTL
		}
	}
	r.cache[name] = cacheEntry{
		answers: answers,
		expiry:  r.env.Now().Add(time.Duration(minTTL) * time.Second),
	}
}

// HandleDNS implements Handler.
func (r *Resolver) HandleDNS(_ transport.Addr, query *dnswire.Message) *dnswire.Message {
	if r.ProcessingDelay > 0 {
		r.env.Sleep(r.ProcessingDelay)
	}
	q := query.FirstQuestion()
	resp := query.Reply()
	answers, rcode, err := r.Resolve(q.Name)
	if err != nil {
		resp.Header.RCode = dnswire.RCodeServerFailure
		return resp
	}
	resp.Header.RCode = rcode
	resp.Answers = append(resp.Answers, answers...)
	return resp
}

// Forwarder is the dnsmasq-equivalent running on the AP: a caching DNS
// proxy forwarding misses to one upstream resolver.
type Forwarder struct {
	env      vclock.Env
	host     transport.Host
	rng      interface{ Intn(int) int }
	upstream transport.Addr
	// mu guards the cache and rng against concurrent handler tasks.
	mu    sync.Mutex
	cache map[string]cacheEntry
	// hits and misses count cache outcomes.
	hits, misses atomic.Int64
	// ProcessingDelay models dnsmasq handling cost per query.
	ProcessingDelay time.Duration
	// QueryTimeout bounds upstream exchanges.
	QueryTimeout time.Duration
}

var _ Handler = (*Forwarder)(nil)

// NewForwarder builds a forwarder sending upstream queries from host.
func NewForwarder(env vclock.Env, host transport.Host, rng interface{ Intn(int) int }, upstream transport.Addr) *Forwarder {
	return &Forwarder{
		env:      env,
		host:     host,
		rng:      rng,
		upstream: upstream,
		cache:    make(map[string]cacheEntry),
	}
}

// CacheStats returns the hit/miss counters (telemetry gauges and status
// snapshots read them while handlers run).
func (f *Forwarder) CacheStats() (hits, misses int) {
	return int(f.hits.Load()), int(f.misses.Load())
}

// LookupCached returns the cached answers for name if fresh.
func (f *Forwarder) LookupCached(name string) ([]dnswire.RR, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.cache[dnswire.CanonicalName(name)]
	if !ok || !f.env.Now().Before(e.expiry) {
		return nil, false
	}
	return e.answers, true
}

// ResolveUpstream queries the upstream resolver for name and caches the
// answer.
func (f *Forwarder) ResolveUpstream(name string) ([]dnswire.RR, dnswire.RCode, error) {
	f.mu.Lock()
	id := uint16(f.rng.Intn(1 << 16))
	f.mu.Unlock()
	q := dnswire.NewQuery(id, name, dnswire.TypeA)
	resp, err := Query(f.host, f.upstream, q, f.QueryTimeout)
	if err != nil {
		return nil, dnswire.RCodeServerFailure, err
	}
	if resp.Header.RCode == dnswire.RCodeSuccess && len(resp.Answers) > 0 {
		f.storeAnswers(name, resp.Answers)
	}
	return resp.Answers, resp.Header.RCode, nil
}

func (f *Forwarder) storeAnswers(name string, answers []dnswire.RR) {
	f.mu.Lock()
	defer f.mu.Unlock()
	minTTL := answers[0].TTL
	for _, rr := range answers {
		if rr.TTL < minTTL {
			minTTL = rr.TTL
		}
	}
	f.cache[dnswire.CanonicalName(name)] = cacheEntry{
		answers: answers,
		expiry:  f.env.Now().Add(time.Duration(minTTL) * time.Second),
	}
}

// HandleDNS implements Handler: answer from cache or forward upstream.
func (f *Forwarder) HandleDNS(_ transport.Addr, query *dnswire.Message) *dnswire.Message {
	if f.ProcessingDelay > 0 {
		f.env.Sleep(f.ProcessingDelay)
	}
	q := query.FirstQuestion()
	resp := query.Reply()
	if answers, ok := f.LookupCached(q.Name); ok {
		f.hits.Add(1)
		resp.Answers = append(resp.Answers, answers...)
		return resp
	}
	f.misses.Add(1)
	answers, rcode, err := f.ResolveUpstream(q.Name)
	if err != nil {
		resp.Header.RCode = dnswire.RCodeServerFailure
		return resp
	}
	resp.Header.RCode = rcode
	resp.Answers = append(resp.Answers, answers...)
	return resp
}
