// Package apcache implements the AP-side APE-CACHE runtime of §IV: a DNS
// server that extends the dnsmasq-like forwarder with DNS-Cache query
// handling (batched per-domain cache flags piggybacked in the Additional
// section, dummy-IP short-circuit when a domain is fully cached), an HTTP
// endpoint serving cached objects, and a delegation endpoint that
// fetch-throughs from the edge and feeds the PACM-managed cache.
package apcache

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"apecache/internal/cachepolicy"
	"apecache/internal/coherence"
	"apecache/internal/decisionlog"
	"apecache/internal/dnsd"
	"apecache/internal/dnswire"
	"apecache/internal/httplite"
	"apecache/internal/objstore"
	"apecache/internal/telemetry"
	"apecache/internal/transport"
	"apecache/internal/vclock"
)

// Default ports for the AP runtime.
const (
	DefaultDNSPort  = 53
	DefaultHTTPPort = 8080
)

// OpKind classifies AP-side work for the resource model (Fig 14).
type OpKind int

// Operation kinds reported to the resource sink.
const (
	OpDNSQuery OpKind = iota + 1
	OpDNSCacheQuery
	OpCacheServe
	OpDelegation
	OpPACMRun
)

// ResourceSink receives per-operation accounting events; internal/resmodel
// implements it to produce the CPU/memory series of Fig 2 and Fig 14.
type ResourceSink interface {
	Account(op OpKind, bytes int)
}

// Config assembles an AP runtime.
type Config struct {
	Env  vclock.Env
	Host transport.Host
	// Upstream is the LDNS the embedded forwarder queries on DNS misses.
	Upstream transport.Addr
	// EdgeAddr is the edge cache server used for delegated fetches.
	EdgeAddr transport.Addr
	// CacheCapacity is the AP cache memory (5 MB in the evaluation).
	CacheCapacity int64
	// Policy is the eviction policy (PACM, or LRU for APE-CACHE-LRU).
	Policy cachepolicy.Policy
	// Rng provides DNS transaction IDs.
	Rng interface{ Intn(int) int }
	// DNSPort and HTTPPort override the defaults when non-zero.
	DNSPort  uint16
	HTTPPort uint16
	// DNSProcessing models the per-query handling cost of the modified
	// dnsmasq on DNS-Cache queries; PlainDNSProcessing the stock dnsmasq
	// cost on ordinary queries (the paper measures the difference at
	// ~0.02 ms); HTTPProcessing the per-request object-serving cost.
	DNSProcessing      time.Duration
	PlainDNSProcessing time.Duration
	HTTPProcessing     time.Duration
	// Resources, when set, receives accounting events.
	Resources ResourceSink
	// DisableDummyIP turns off the dummy-IP short circuit (ablation):
	// every DNS-Cache query then waits for real upstream resolution.
	DisableDummyIP bool
	// Coherence selects how the AP handles purge messages from the
	// invalidation bus: ModeOff (TTL-only, no subscription), ModeInvalidate
	// (evict on purge) or ModeSWR (serve the purged copy once while a
	// background conditional re-fetch refreshes it).
	Coherence coherence.Mode
	// BusAddr is the coherence hub to subscribe to; zero means the hub is
	// colocated with the edge at EdgeAddr.
	BusAddr transport.Addr
	// PurgeBatch announces batch capability when subscribing: a sharded
	// hub then coalesces this AP's purge deliveries into MsgBatch bodies.
	// Off by default — the plain registration stays byte-identical to the
	// legacy wire.
	PurgeBatch bool
	// PurgeDomains registers domain interest when subscribing: a sharded
	// hub only delivers purges whose URL domain shares a shard with one
	// of these. Empty means "deliver everything".
	PurgeDomains []string
	// Telemetry receives this AP's metrics, spans and events. When nil a
	// private bundle is created; the testbed shares one bundle across all
	// nodes so traces stitch together.
	Telemetry *telemetry.Telemetry
	// FleetAddr, when set, enables periodic telemetry snapshot pushes
	// to the fleet controller (the wicache controller's /snapshot
	// endpoint) so this AP appears in the fleet view. Zero disables
	// pushing; snapshot traffic is wire-visible, so experiment runs
	// leave it off.
	FleetAddr transport.Addr
	// SnapshotInterval tunes the push cadence
	// (telemetry.DefaultSnapshotInterval when zero).
	SnapshotInterval time.Duration
	// NodeName overrides the identity this AP stamps on spans and
	// snapshots ("ap:<host name>" when empty). Fleet node names must be
	// unique — set this when several APs share one host address.
	NodeName string
	// MeshAddr, when set, enables the cooperative cache mesh (§ mesh in
	// DESIGN.md): the AP publishes content summaries to the mesh
	// directory at this address and consults it on delegation misses to
	// fetch from nearby peers instead of the edge. Zero disables the
	// mesh; summary and lookup traffic is wire-visible, so baseline
	// experiment runs leave it off.
	MeshAddr transport.Addr
	// MeshInterval overrides the summary publish cadence
	// (coopmesh.DefaultSummaryInterval when zero).
	MeshInterval time.Duration
	// DecisionLog enables the per-AP cache decision ledger: every
	// lifecycle decision (admission with its PACM utility terms,
	// eviction, Gini drop, expiry, purge, SWR serve, peer fill/fail) is
	// recorded, every miss classified into the cause taxonomy, the
	// apcache_miss_cause_total counters registered, and the /explain
	// endpoint mounted. Off by default: with the ledger off no new
	// metric families are registered and no wire bytes change, so
	// experiment outputs stay bit-identical.
	DecisionLog bool
}

// AP is a running APE-CACHE access point.
type AP struct {
	cfg   Config
	store *cachepolicy.Store
	fwd   *dnsd.Forwarder
	edge  *httplite.Client
	tel   *apTel

	dnsConn  transport.PacketConn
	dnsTCP   transport.Listener
	httpList transport.Listener
	started  time.Time
	pusher   *telemetry.Pusher
	mesh     *meshState
	mtel     *meshTel
	ledger   *decisionlog.Ledger

	// prefMu guards prefTracked, the URLs filled by prefetch that have
	// not yet served a hit (prefetch precision/recall accounting).
	// prefPending is the lock-free hit-path gate: zero means no tracked
	// fills, so cache serves skip the lock entirely.
	prefMu      sync.Mutex
	prefTracked map[string]int64
	prefPending atomic.Int32

	// delegations counts fetch-through operations; prefetches counts
	// background warm-ups triggered by X-Ape-Prefetch hints; purges
	// counts bus messages applied; revalidations background conditional
	// re-fetches completed. peerHits counts misses served from a mesh
	// peer; peerFallbacks the lookups whose candidates all failed (Bloom
	// false positive or eviction race) before falling back to the edge.
	// peerBytes and delegationBytes total the payload bytes over each
	// path — their ratio is the mesh's backhaul saving. Snapshot reads
	// them; newAPTel and newMeshTel attach them (delegationBytes has no
	// metric family).
	delegations, delegationBytes, prefetches telemetry.Counter
	purges, revalidations                    telemetry.Counter
	peerHits, peerFallbacks, peerBytes       telemetry.Counter

	// tasks owns the AP's background work: the sweeper, revalidations
	// and prefetches. Stop waits for them.
	tasks *vclock.Group
	// refreshes and fetches are the singleflights: one background
	// revalidation per URL, one edge fetch per URL across concurrent
	// delegations.
	refreshes, fetches flights
}

// New builds an AP runtime; call Start to begin serving.
func New(cfg Config) *AP {
	if cfg.DNSPort == 0 {
		cfg.DNSPort = DefaultDNSPort
	}
	if cfg.HTTPPort == 0 {
		cfg.HTTPPort = DefaultHTTPPort
	}
	if cfg.Policy == nil {
		cfg.Policy = cachepolicy.NewPACM()
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.New(cfg.Env)
	}
	store := cachepolicy.NewStore(cfg.Env, cfg.CacheCapacity, cachepolicy.DefaultMaxObjectSize, cfg.Policy, nil)
	store.Instrument(cfg.Telemetry, "apcache")
	fwd := dnsd.NewForwarder(cfg.Env, cfg.Host, cfg.Rng, cfg.Upstream)
	fwd.ProcessingDelay = cfg.PlainDNSProcessing
	ap := &AP{
		cfg:       cfg,
		store:     store,
		fwd:       fwd,
		edge:      httplite.NewClient(cfg.Host),
		tasks:     vclock.NewGroup(cfg.Env),
		refreshes: flights{env: cfg.Env},
		fetches:   flights{env: cfg.Env},
	}
	ap.tel = newAPTel(cfg.Telemetry, ap)
	if cfg.DecisionLog {
		ap.ledger = decisionlog.New(decisionlog.DefaultCapacity)
		store.AttachLedger(ap.ledger)
		// Miss-cause counters exist only when the ledger does (like the
		// mesh instruments): ledger-off APs register zero new families
		// and their snapshot wire bytes are unchanged.
		registerMissCauses(cfg.Telemetry, ap.ledger)
	}
	if !cfg.MeshAddr.IsZero() {
		ap.mesh = &meshState{peerEWMA: make(map[string]time.Duration)}
		ap.mtel = newMeshTel(cfg.Telemetry, ap)
	} else {
		ap.mtel = &meshTel{} // nil instruments: every Inc is a no-op
	}
	return ap
}

// Telemetry exposes the AP's telemetry bundle (apectl and tests).
func (ap *AP) Telemetry() *telemetry.Telemetry { return ap.cfg.Telemetry }

// Store exposes the cache for experiment inspection.
func (ap *AP) Store() *cachepolicy.Store { return ap.store }

// Forwarder exposes the embedded DNS forwarder.
func (ap *AP) Forwarder() *dnsd.Forwarder { return ap.fwd }

// Start binds the DNS (UDP + TCP, for truncation fallback) and HTTP
// ports and begins serving.
func (ap *AP) Start() error {
	pc, tcpL, err := dnsd.ListenAndServe(ap.cfg.Env, ap.cfg.Host, ap.cfg.DNSPort, ap)
	if err != nil {
		return fmt.Errorf("apcache: dns listen: %w", err)
	}
	ap.dnsConn = pc
	ap.dnsTCP = tcpL

	l, err := ap.cfg.Host.Listen(ap.cfg.HTTPPort)
	if err != nil {
		pc.Close()
		tcpL.Close()
		return fmt.Errorf("apcache: http listen: %w", err)
	}
	ap.httpList = l
	mux := httplite.NewMux()
	mux.HandleFunc("/cache", ap.handleCacheGet)
	mux.HandleFunc("/delegate", ap.handleDelegate)
	mux.HandleFunc("/status", ap.handleStatus)
	mux.HandleFunc(coherence.DefaultPurgePath, ap.handlePurge)
	if ap.ledger != nil {
		mux.HandleFunc("/explain", ap.handleExplain)
	}
	ap.cfg.Telemetry.Register(mux)
	srv := httplite.NewServer(ap.cfg.Env, mux)
	ap.cfg.Env.Go("apcache.http", func() { srv.Serve(l) })
	ap.started = ap.cfg.Env.Now()
	ap.startSweeper()
	if ap.mesh != nil {
		if err := ap.startMesh(); err != nil {
			ap.Stop()
			return fmt.Errorf("apcache: %w", err)
		}
	}
	if ap.cfg.Coherence != coherence.ModeOff {
		if err := ap.subscribeBus(); err != nil {
			ap.Stop()
			return fmt.Errorf("apcache: %w", err)
		}
	}
	if !ap.cfg.FleetAddr.IsZero() {
		p, err := telemetry.NewPusher(telemetry.PushConfig{
			Env: ap.cfg.Env, Tel: ap.cfg.Telemetry, Node: ap.nodeName(),
			Host: ap.cfg.Host, Target: ap.cfg.FleetAddr,
			Interval: ap.cfg.SnapshotInterval,
		})
		if err != nil {
			ap.Stop()
			return fmt.Errorf("apcache: %w", err)
		}
		ap.pusher = p
		p.Start()
	}
	return nil
}

// Stop closes the AP's listeners, stops its pushers and waits for its
// background tasks. Connection handlers end with their streams.
func (ap *AP) Stop() {
	if ap.dnsConn != nil {
		ap.dnsConn.Close()
	}
	if ap.dnsTCP != nil {
		ap.dnsTCP.Close()
	}
	if ap.httpList != nil {
		ap.httpList.Close()
	}
	if ap.pusher != nil {
		ap.pusher.Stop()
	}
	if ap.mesh != nil && ap.mesh.publisher != nil {
		ap.mesh.publisher.Stop()
	}
	ap.tasks.Stop()
}

// DNSAddr returns the DNS endpoint.
func (ap *AP) DNSAddr() transport.Addr {
	return transport.Addr{Host: ap.cfg.Host.Name(), Port: ap.cfg.DNSPort}
}

// HTTPAddr returns the object/delegation endpoint.
func (ap *AP) HTTPAddr() transport.Addr {
	return transport.Addr{Host: ap.cfg.Host.Name(), Port: ap.cfg.HTTPPort}
}

// account forwards to the resource sink when configured.
func (ap *AP) account(op OpKind, n int) {
	if ap.cfg.Resources != nil {
		ap.cfg.Resources.Account(op, n)
	}
}

// dnsScratch is HandleDNS's per-query scratch: the hashes parsed from the
// request RR and the ⟨hash, flag⟩ batch collected before it is encoded
// into the response RR.
type dnsScratch struct{ requested, batch []dnswire.CacheEntry }

var dnsScratches = sync.Pool{New: func() any { return new(dnsScratch) }}

// HandleDNS implements dnsd.Handler: plain queries go through the
// forwarder; DNS-Cache queries additionally collect cache flags and may
// short-circuit resolution with the dummy IP (§IV-B).
func (ap *AP) HandleDNS(from transport.Addr, query *dnswire.Message) *dnswire.Message {
	reqRR, isCacheQuery := query.FindCacheRR(dnswire.ClassCacheRequest)
	if !isCacheQuery {
		ap.account(OpDNSQuery, 0)
		ap.tel.dnsPlain.Inc()
		return ap.fwd.HandleDNS(from, query)
	}
	ap.account(OpDNSCacheQuery, 0)
	ap.tel.dnsCache.Inc()
	if ap.cfg.DNSProcessing > 0 {
		ap.cfg.Env.Sleep(ap.cfg.DNSProcessing)
	}

	q := query.FirstQuestion()
	domain := dnswire.CanonicalName(q.Name)
	resp := query.Reply()

	// A trace RR in the query ties this resolution into the client's
	// distributed trace.
	if tid, traced := query.TraceID(); traced {
		start := ap.cfg.Env.Now()
		defer func() {
			ap.cfg.Telemetry.Span(telemetry.TraceID(tid), "ap-dns", ap.nodeName(),
				start, ap.cfg.Env.Now().Sub(start), "domain="+domain)
		}()
	}

	// Collect flags: every URL the AP knows under the domain (batching,
	// §IV-B) plus every hash the client asked about beyond those. A
	// malformed request RR still gets the domain's batch.
	sc := dnsScratches.Get().(*dnsScratch)
	sc.requested, _ = dnswire.AppendCacheEntries(sc.requested[:0], reqRR)
	var anyMiss bool
	sc.batch, anyMiss = ap.store.AppendDomainFlags(sc.batch[:0], domain, sc.requested)
	resp.Additional = append(resp.Additional, dnswire.NewCacheRR(domain, dnswire.ClassCacheResponse, sc.batch))
	dnsScratches.Put(sc) // NewCacheRR copied the batch out; keep the growth

	// Dummy-IP short-circuit (§IV-B "handling DNS resolution latency"):
	// the client only ever dials the resolved IP when a flag says
	// Cache-Miss (block-listed object). When every URL of the domain is
	// available from the AP — cached or delegable — the AP skips
	// upstream resolution entirely and answers a non-routable IP with
	// TTL 0. This is what keeps APE-CACHE lookups at one WiFi round
	// trip regardless of upstream DNS state.
	if !anyMiss && !ap.cfg.DisableDummyIP {
		ap.tel.dummyHits.Inc()
		resp.Answers = append(resp.Answers, dnswire.NewA(domain, 0, dnswire.DummyIP))
		return resp
	}

	// Otherwise resolve normally (AP DNS cache, then upstream).
	if answers, ok := ap.fwd.LookupCached(domain); ok {
		resp.Answers = append(resp.Answers, answers...)
		return resp
	}
	answers, rcode, err := ap.fwd.ResolveUpstream(domain)
	if err != nil {
		resp.Header.RCode = dnswire.RCodeServerFailure
		return resp
	}
	resp.Header.RCode = rcode
	resp.Answers = append(resp.Answers, answers...)
	return resp
}

// handleCacheGet serves GET /cache?u=<url>&app=<app>: a Cache-Hit fetch.
func (ap *AP) handleCacheGet(req *httplite.Request) *httplite.Response {
	if ap.cfg.HTTPProcessing > 0 {
		ap.cfg.Env.Sleep(ap.cfg.HTTPProcessing)
	}
	params := httplite.QueryParams(req.Path)
	target := params["u"]
	if target == "" {
		return httplite.NewResponse(400, []byte("missing u parameter"))
	}
	trace, _ := telemetry.ParseTraceID(req.Get(telemetry.TraceHeader))
	result := "miss"
	start := ap.cfg.Env.Now()
	defer func() {
		if result != "miss" {
			// Cached-serve latency feeds the fleet's cached-hit SLO.
			ap.tel.serveSecs.ObserveDuration(ap.cfg.Env.Now().Sub(start))
		}
	}()
	if trace != 0 {
		defer func() {
			ap.cfg.Telemetry.Span(trace, "ap-cache", ap.nodeName(),
				start, ap.cfg.Env.Now().Sub(start), "result="+result)
		}()
	}
	if app := params["app"]; app != "" {
		ap.store.RecordRequest(app)
	}
	// A mesh peer fetch identifies itself; peers need the coherence
	// version and remaining freshness to re-cache the object, and must
	// never consume the one-shot stale-while-revalidate allowance that
	// belongs to this AP's own clients.
	peer := req.Get("X-Ape-Peer")
	basic := dnswire.BasicURL(target)
	entry, ok := ap.store.Get(basic)
	if !ok {
		if ap.cfg.Coherence == coherence.ModeSWR && peer == "" {
			if stale, sok := ap.store.GetStale(basic); sok {
				// The one allowed post-purge serve: hand out the resident
				// copy at hit speed and make sure a revalidation is
				// running (belt and braces — the purge handler already
				// scheduled one; the singleflight guard dedupes).
				ap.tasks.Go("apcache.revalidate", func() { ap.revalidate(basic, false) })
				ap.account(OpCacheServe, len(stale.Data))
				result = "stale"
				ap.tel.serveStale.Inc()
				resp := httplite.NewResponse(200, stale.Data)
				resp.Set("X-Ape-Source", "ap-cache-stale")
				resp.Set("Warning", `110 - "response is stale"`)
				return resp
			}
		}
		// Evicted or expired between lookup and fetch: the client falls
		// back to delegation/edge.
		ap.tel.serveMiss.Inc()
		return httplite.NewResponse(404, []byte("not cached"))
	}
	ap.account(OpCacheServe, len(entry.Data))
	result = "hit"
	ap.tel.serveHit.Inc()
	if ap.prefPending.Load() > 0 {
		ap.notePrefetchUse(basic)
	}
	resp := httplite.NewResponse(200, entry.Data)
	resp.Set("X-Ape-Source", "ap-cache")
	if peer != "" {
		// Extra metadata only on peer fetches, so the bytes of ordinary
		// client serves stay identical with the mesh off.
		resp.Set("ETag", coherence.FormatETag(entry.Version))
		remain := entry.Expiry.Sub(ap.cfg.Env.Now())
		resp.Set("X-Ape-Fresh-Ms", strconv.FormatInt(remain.Milliseconds(), 10))
		ap.mtel.peerServes.Inc()
	}
	return resp
}

// handleDelegate serves POST /delegate: body is the raw URL; headers carry
// the client-declared TTL (minutes), priority and app. The AP fetches the
// object from the edge, caches it under the policy, and relays it.
func (ap *AP) handleDelegate(req *httplite.Request) *httplite.Response {
	if ap.cfg.HTTPProcessing > 0 {
		ap.cfg.Env.Sleep(ap.cfg.HTTPProcessing)
	}
	rawURL := string(req.Body)
	if rawURL == "" {
		return httplite.NewResponse(400, []byte("missing url body"))
	}
	basic := dnswire.BasicURL(rawURL)
	trace, _ := telemetry.ParseTraceID(req.Get(telemetry.TraceHeader))
	outcome := "error"
	if trace != 0 {
		spanStart := ap.cfg.Env.Now()
		defer func() {
			ap.cfg.Telemetry.Span(trace, "delegation", ap.nodeName(),
				spanStart, ap.cfg.Env.Now().Sub(spanStart), "result="+outcome)
		}()
	}
	ttlMin, _ := strconv.Atoi(req.Get("X-Ape-TTL"))
	if ttlMin <= 0 {
		ttlMin = 10
	}
	priority, _ := strconv.Atoi(req.Get("X-Ape-Priority"))
	if priority != objstore.PriorityHigh {
		priority = objstore.PriorityLow
	}
	app := req.Get("X-Ape-App")
	if app != "" {
		ap.store.RecordRequest(app)
	}
	ap.maybePrefetch(req, app)

	// Negative cache: a purged-and-gone object answers 410 inside its
	// window without touching the edge (re-fetching would only 404 there).
	if ap.store.NegativeCached(basic) {
		outcome = "negative"
		return httplite.NewResponse(410, []byte("origin deleted object"))
	}

	// Singleflight: concurrent delegations for the same URL trigger one
	// edge fetch; followers wait for it and serve the freshly cached copy.
	if f, lead := ap.fetches.join(basic, false); lead {
		defer ap.fetches.land(basic)
	} else if body, ok := ap.awaitDelegation(f, basic); ok {
		ap.account(OpCacheServe, len(body))
		outcome = "follower"
		resp := httplite.NewResponse(200, body)
		resp.Set("X-Ape-Source", "ap-cache")
		return resp
	}

	// Cooperative mesh tier: before paying the edge round trip, ask the
	// mesh directory whether a nearby peer AP already holds the object
	// and fetch it over the LAN when the latency gate approves.
	if resp, ok := ap.tryPeerFetch(basic, app, priority, trace); ok {
		outcome = "peer"
		return resp
	}

	// Fetch from the edge, timing the retrieval — the measured latency
	// approximates l_d for PACM (transfer time makes it grow with object
	// size, so critical-path objects measure slower, as in the paper).
	// The trace header rides along so the edge's spans join the trace.
	edgeReq := httplite.NewRequest("GET", dnswire.URLDomain(basic), dnswire.URLPath(basic))
	if trace != 0 {
		edgeReq.Set(telemetry.TraceHeader, trace.String())
	}
	start := ap.cfg.Env.Now()
	edgeResp, err := ap.edge.Do(ap.cfg.EdgeAddr, edgeReq)
	if err != nil {
		ap.tel.delegationErrors.Inc()
		return httplite.NewResponse(502, []byte(err.Error()))
	}
	if edgeResp.Status != 200 {
		ap.tel.delegationErrors.Inc()
		return edgeResp
	}
	fetchLatency := ap.cfg.Env.Now().Sub(start)
	ap.delegations.Inc()
	ap.delegationBytes.Add(int64(len(edgeResp.Body)))
	if ap.mesh != nil {
		ap.observeEdge(fetchLatency)
	}
	outcome = "edge"
	ap.tel.delegationSecs.ObserveDuration(fetchLatency)
	ap.account(OpDelegation, len(edgeResp.Body))

	version, _ := coherence.ParseETag(edgeResp.Get("ETag"))
	obj := &objstore.Object{
		URL:      basic,
		App:      app,
		Size:     len(edgeResp.Body),
		TTL:      time.Duration(ttlMin) * time.Minute,
		Priority: priority,
		Version:  version,
	}
	ap.account(OpPACMRun, ap.store.Len())
	if ap.ledger != nil {
		// A delegation fill is the AP-level face of a miss: the DNS flag
		// sent the client here instead of /cache. Classify before the Put
		// records the admission, while the URL's history still shows why
		// the object was absent. The instrument identity is
		// ledger total == store lookup misses + delegations + peer hits —
		// every Classify site pairs with exactly one of those counters.
		ap.ledger.Classify(basic, ap.cfg.Env.Now())
	}
	_ = ap.store.Put(obj, edgeResp.Body, fetchLatency) // ErrBlocked/ErrStaleVersion is fine: relay anyway

	resp := httplite.NewResponse(200, edgeResp.Body)
	resp.Set("X-Ape-Source", "ap-delegate")
	return resp
}
