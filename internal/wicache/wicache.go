// Package wicache implements the Wi-Cache baseline (Chhangte et al., IEEE
// TNSM 2021) as adapted by the paper's evaluation: cache requests go to a
// centralized controller (an EC2 instance 12 hops away in the testbed)
// that knows which AP holds which object and redirects the client; the AP
// stores objects under LRU; on a miss the client is sent to the edge
// server while the controller directs the AP to fill the object for
// future requests.
package wicache

import (
	"encoding/json"
	"fmt"
	"net/url"
	"sync"
	"time"

	"apecache/internal/cachepolicy"
	"apecache/internal/coherence"
	"apecache/internal/coopmesh"
	"apecache/internal/dnswire"
	"apecache/internal/httplite"
	"apecache/internal/metrics"
	"apecache/internal/objstore"
	"apecache/internal/telemetry"
	"apecache/internal/transport"
	"apecache/internal/vclock"
)

// Default ports.
const (
	DefaultControllerPort = 7000
	DefaultAPPort         = 7001
)

// report is the AP -> controller content update message.
type report struct {
	AP  string   `json:"ap"`
	Add []string `json:"add,omitempty"`
	Del []string `json:"del,omitempty"`
}

// locateRequest is the client -> controller lookup message; the cache
// metadata rides along so the controller can order a fill on miss, and
// HomeAP names the AP the client associates with so fills land near the
// requester (Wi-Cache's distributed, nearest-AP placement).
type locateRequest struct {
	URL      string `json:"url"`
	TTLMin   int    `json:"ttl_min"`
	Priority int    `json:"priority"`
	App      string `json:"app"`
	HomeAP   string `json:"home_ap,omitempty"`
}

// Controller is the centralized Wi-Cache controller.
type Controller struct {
	env    vclock.Env
	host   transport.Host
	client *httplite.Client
	// relay is the controller->AP purge relay; every registered AP is one
	// of its subscribers, in first-registration order.
	relay    *coherence.Dispatcher
	listener transport.Listener
	// ProcessingDelay models controller handling per request.
	ProcessingDelay time.Duration

	// mu guards the location and AP tables: the handlers run
	// concurrently on real sockets.
	mu sync.Mutex
	// locations maps basic URL -> holder AP names, most recent reporter
	// first: the serve path redirects to the front (the old last-wins
	// behaviour), while a dispatching purge relay targets the whole set.
	// apAddrs maps AP name -> fill endpoint; firstAP is the first AP
	// registered, the fill fallback.
	locations map[string][]string
	apAddrs   map[string]transport.Addr
	apServe   map[string]transport.Addr
	firstAP   string

	// locates counts lookup requests, purges bus messages handled and
	// relays the per-AP purge deliveries ordered.
	locates     telemetry.Counter
	purges      telemetry.Counter
	relays      telemetry.Counter
	tel         *telemetry.Telemetry
	fillOrdersC *telemetry.Counter

	fleet *FleetStore
	mesh  *coopmesh.Directory

	// tasks owns the fill orders in flight; Stop waits for them.
	tasks *vclock.Group
}

// NewController builds a controller.
func NewController(env vclock.Env, host transport.Host) *Controller {
	client := httplite.NewClient(host)
	return &Controller{
		env:       env,
		host:      host,
		client:    client,
		relay:     coherence.NewDispatcher(env, client),
		tasks:     vclock.NewGroup(env),
		locations: make(map[string][]string),
		apAddrs:   make(map[string]transport.Addr),
		apServe:   make(map[string]transport.Addr),
	}
}

// RegisterAP declares an AP's fill endpoint and client-facing serve
// endpoint, and subscribes the fill endpoint to the purge relay as a
// batch-capable target (Wi-Cache APs parse both wire forms; batches only
// form once EnableDispatch starts queued delivery).
func (c *Controller) RegisterAP(name string, fillAddr, serveAddr transport.Addr) {
	c.mu.Lock()
	if c.firstAP == "" {
		c.firstAP = name
	}
	c.apAddrs[name] = fillAddr
	c.apServe[name] = serveAddr
	c.mu.Unlock()
	c.relay.Register(coherence.Subscription{Addr: fillAddr, Path: coherence.DefaultPurgePath, Batch: true})
}

// EnableDispatch switches the controller's purge relay from one task
// per AP per purge to sharded, batched delivery, and makes it location-
// targeted: only APs recorded as holding the object are queued, and
// their purges coalesce into MsgBatch deliveries. Call before Start,
// from a sim task when under the virtual clock. Returns the dispatcher
// for stats.
func (c *Controller) EnableDispatch(cfg coherence.DispatchConfig) *coherence.Dispatcher {
	c.relay.Start(cfg)
	return c.relay
}

// Dispatch returns the controller's purge relay dispatcher.
func (c *Controller) Dispatch() *coherence.Dispatcher { return c.relay }

// Start binds the controller port.
func (c *Controller) Start(port uint16) error {
	if port == 0 {
		port = DefaultControllerPort
	}
	l, err := c.host.Listen(port)
	if err != nil {
		return fmt.Errorf("wicache controller: %w", err)
	}
	c.listener = l
	mux := httplite.NewMux()
	mux.HandleFunc("/locate", c.handleLocate)
	mux.HandleFunc("/report", c.handleReport)
	mux.HandleFunc(coherence.DefaultPurgePath, c.handlePurge)
	if c.fleet != nil {
		mux.HandleFunc(telemetry.DefaultSnapshotPath, c.handleSnapshot)
		mux.HandleFunc("/fleet", c.handleFleet)
		mux.HandleFunc("/alerts", c.handleAlerts)
	}
	if c.mesh != nil {
		c.mesh.Mount(mux)
	}
	c.tel.Register(mux)
	srv := httplite.NewServer(c.env, mux)
	c.env.Go("wicache.controller", func() { srv.Serve(l) })
	return nil
}

// EnableFleet attaches a fleet observability store to the controller
// and mounts /snapshot, /fleet, and /alerts when Start runs. Call it
// before Start; call Instrument first if stitched traces and the fleet
// counters should land in the controller's telemetry bundle.
func (c *Controller) EnableFleet(cfg FleetConfig) *FleetStore {
	c.fleet = NewFleetStore(c.env, c.tel, cfg)
	return c.fleet
}

// Fleet returns the attached fleet store, nil when fleet observability
// is not enabled.
func (c *Controller) Fleet() *FleetStore { return c.fleet }

// EnableMesh attaches a cooperative-mesh directory to the controller and
// mounts the /mesh routes when Start runs. Call it before Start; call
// Instrument first if mesh counters should land in the controller's
// telemetry bundle.
func (c *Controller) EnableMesh() *coopmesh.Directory {
	c.mesh = coopmesh.NewDirectory(c.env)
	c.mesh.Instrument(c.tel)
	return c.mesh
}

// Mesh returns the attached mesh directory, nil when the mesh is not
// enabled.
func (c *Controller) Mesh() *coopmesh.Directory { return c.mesh }

// handleSnapshot ingests one pushed AP telemetry snapshot.
func (c *Controller) handleSnapshot(req *httplite.Request) *httplite.Response {
	snap, err := telemetry.DecodeSnapshot(req.Body)
	if err != nil {
		return httplite.NewResponse(400, []byte(err.Error()))
	}
	if err := c.fleet.Ingest(snap); err != nil {
		return httplite.NewResponse(409, []byte(err.Error()))
	}
	return httplite.NewResponse(200, nil)
}

// handleFleet serves the fleet view as JSON.
func (c *Controller) handleFleet(req *httplite.Request) *httplite.Response {
	body, err := json.MarshalIndent(c.fleet.View(), "", "  ")
	if err != nil {
		return httplite.NewResponse(500, []byte(err.Error()))
	}
	resp := httplite.NewResponse(200, body)
	resp.Set("Content-Type", "application/json")
	return resp
}

// AlertsPayload is the /alerts response body.
type AlertsPayload struct {
	Alerts  []AlertStatus `json:"alerts"`
	History []AlertEvent  `json:"history,omitempty"`
}

// handleAlerts serves alert statuses plus the transition history.
func (c *Controller) handleAlerts(req *httplite.Request) *httplite.Response {
	body, err := json.MarshalIndent(AlertsPayload{
		Alerts:  c.fleet.Alerts(),
		History: c.fleet.AlertHistory(),
	}, "", "  ")
	if err != nil {
		return httplite.NewResponse(500, []byte(err.Error()))
	}
	resp := httplite.NewResponse(200, body)
	resp.Set("Content-Type", "application/json")
	return resp
}

// SubscribeBus registers the controller's /purge endpoint with the
// coherence hub at hubAddr; the controller then fans relayed purges out
// to its whole registered AP fleet (the hub sees one subscriber per
// fleet, not one per AP).
func (c *Controller) SubscribeBus(hubAddr transport.Addr) error {
	return coherence.Subscribe(c.client, hubAddr, c.Addr(), coherence.DefaultPurgePath)
}

// SubscribeBusWith is SubscribeBus with the sharded-bus registration
// fields: domains declares which object domains this controller's APs
// serve (a sharded hub then skips it for everything else), and the
// controller announces batch capability so hub deliveries coalesce.
func (c *Controller) SubscribeBusWith(hubAddr transport.Addr, domains []string) error {
	return coherence.SubscribeWith(c.client, hubAddr, coherence.Subscription{
		Addr:    c.Addr(),
		Path:    coherence.DefaultPurgePath,
		Domains: domains,
		Batch:   true,
	})
}

// handlePurge applies bus messages (single-Msg or MsgBatch bodies): each
// location entry is dropped (the next locate misses and triggers a fresh
// fill) and the purge is relayed downstream so resident LRU copies are
// evicted too. By default the relay reaches every registered AP; with
// EnableDispatch it is location-targeted — only the APs recorded as
// holding the object are queued — and batched per AP.
func (c *Controller) handlePurge(req *httplite.Request) *httplite.Response {
	msgs, err := coherence.ParseMsgs(req.Body)
	if err != nil {
		return httplite.NewResponse(400, []byte(err.Error()))
	}
	for _, msg := range msgs {
		c.purges.Inc()
		c.mu.Lock()
		keys := make([]string, 0, len(c.locations[msg.URL]))
		for _, name := range c.locations[msg.URL] {
			if addr, ok := c.apAddrs[name]; ok {
				keys = append(keys, addr.String())
			}
		}
		delete(c.locations, msg.URL)
		c.mu.Unlock()
		if c.mesh != nil {
			// Tombstone the URL in the mesh directory so lookups stop
			// offering peers whose summaries predate the purge.
			c.mesh.Purge(msg.URL)
		}
		var sent int
		if c.relay.Sharded() {
			// Targeted relay: only recorded holders get the purge, so relay
			// cost scales with the number of copies, not the fleet size. The
			// location table is this controller's own fill bookkeeping; a
			// holder it missed (a lost report) is covered by the TTL
			// backstop, the same best-effort guarantee the bus gives for a
			// lost purge.
			for _, key := range keys {
				if c.relay.Send(key, msg) {
					sent++
				}
			}
		} else {
			sent = c.relay.Publish(msg)
		}
		c.relays.Add(int64(sent))
	}
	return httplite.NewResponse(200, nil)
}

// Stop closes the controller listener, stops the relay dispatcher and
// waits for the fill orders in flight.
func (c *Controller) Stop() {
	if c.listener != nil {
		c.listener.Close()
	}
	c.relay.Stop()
	c.tasks.Stop()
}

// Addr returns the controller endpoint.
func (c *Controller) Addr() transport.Addr {
	return transport.Addr{Host: c.host.Name(), Port: c.listener.Addr().Port}
}

// handleLocate answers where a URL is cached; on miss it returns 204 and
// asynchronously orders the (single, nearest) AP to fill the object.
func (c *Controller) handleLocate(req *httplite.Request) *httplite.Response {
	if c.ProcessingDelay > 0 {
		c.env.Sleep(c.ProcessingDelay)
	}
	var lr locateRequest
	if err := json.Unmarshal(req.Body, &lr); err != nil {
		return httplite.NewResponse(400, []byte("bad locate body"))
	}
	c.locates.Inc()
	basic := dnswire.BasicURL(lr.URL)
	c.mu.Lock()
	var apName string
	if names := c.locations[basic]; len(names) > 0 {
		apName = names[0]
	}
	serve := c.apServe[apName]
	fill, canFill := c.fillTarget(lr.HomeAP)
	c.mu.Unlock()
	if apName != "" {
		resp := httplite.NewResponse(200, []byte(serve.String()))
		resp.Set("X-Wicache-AP", apName)
		return resp
	}
	// Miss: order a background fill at the client's home AP (falling
	// back to any registered AP) so the next nearby request hits.
	if canFill {
		c.fillOrdersC.Inc()
		c.tasks.Go("wicache.fill-order", func() {
			freq := httplite.NewRequest("POST", fill.Host, "/fill")
			body, _ := json.Marshal(lr)
			freq.Body = body
			_, _ = c.client.Do(fill, freq)
		})
	}
	return httplite.NewResponse(204, nil)
}

// fillTarget picks the AP that should cache a missed object: the
// client's home AP, else the first registered one. Callers hold c.mu.
func (c *Controller) fillTarget(homeAP string) (transport.Addr, bool) {
	if addr, ok := c.apAddrs[homeAP]; ok {
		return addr, true
	}
	addr, ok := c.apAddrs[c.firstAP]
	return addr, ok
}

// handleReport ingests AP content updates.
func (c *Controller) handleReport(req *httplite.Request) *httplite.Response {
	var r report
	if err := json.Unmarshal(req.Body, &r); err != nil {
		return httplite.NewResponse(400, []byte("bad report body"))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, u := range r.Add {
		basic := dnswire.BasicURL(u)
		c.locations[basic] = holdersInsertFront(c.locations[basic], r.AP)
	}
	for _, u := range r.Del {
		basic := dnswire.BasicURL(u)
		if names := holdersRemove(c.locations[basic], r.AP); len(names) > 0 {
			c.locations[basic] = names
		} else {
			delete(c.locations, basic)
		}
	}
	return httplite.NewResponse(200, nil)
}

// holdersInsertFront records name as the most recent holder, moving it to
// the front if already present (so the serve path keeps the old last-wins
// redirect behaviour while the full set stays known for targeted purges).
func holdersInsertFront(names []string, name string) []string {
	out := make([]string, 0, len(names)+1)
	out = append(out, name)
	for _, n := range names {
		if n != name {
			out = append(out, n)
		}
	}
	return out
}

// holdersRemove drops name from the holder list, preserving order.
func holdersRemove(names []string, name string) []string {
	out := names[:0]
	for _, n := range names {
		if n != name {
			out = append(out, n)
		}
	}
	return out
}

// APServer is the Wi-Cache AP: an LRU object store that fills from the
// edge on controller command.
type APServer struct {
	env        vclock.Env
	host       transport.Host
	name       string
	store      *cachepolicy.Store
	client     *httplite.Client
	edgeAddr   transport.Addr
	controller transport.Addr
	listener   transport.Listener
	// ProcessingDelay models per-request handling cost.
	ProcessingDelay time.Duration
	// fills counts fill operations; purges counts relayed bus purges
	// applied.
	fills  telemetry.Counter
	purges telemetry.Counter
	// tasks owns the sweeper; Stop waits for it.
	tasks *vclock.Group
}

// NewAPServer builds a Wi-Cache AP with an LRU store of the given
// capacity.
func NewAPServer(env vclock.Env, host transport.Host, name string, capacity int64, edgeAddr, controller transport.Addr) *APServer {
	s := &APServer{
		env:        env,
		host:       host,
		name:       name,
		client:     httplite.NewClient(host),
		edgeAddr:   edgeAddr,
		controller: controller,
		tasks:      vclock.NewGroup(env),
	}
	s.store = cachepolicy.NewStore(env, capacity, 0, cachepolicy.NewLRU(), nil)
	return s
}

// Store exposes the AP cache for experiments.
func (s *APServer) Store() *cachepolicy.Store { return s.store }

// Start binds the AP port.
func (s *APServer) Start(port uint16) error {
	if port == 0 {
		port = DefaultAPPort
	}
	l, err := s.host.Listen(port)
	if err != nil {
		return fmt.Errorf("wicache ap: %w", err)
	}
	s.listener = l
	mux := httplite.NewMux()
	mux.HandleFunc("/chunk", s.handleChunk)
	mux.HandleFunc("/fill", s.handleFill)
	mux.HandleFunc(coherence.DefaultPurgePath, s.handlePurge)
	srv := httplite.NewServer(s.env, mux)
	s.env.Go("wicache.ap", func() { srv.Serve(l) })
	s.startSweeper()
	return nil
}

// Stop closes the AP listener and waits for the sweeper.
func (s *APServer) Stop() {
	if s.listener != nil {
		s.listener.Close()
	}
	s.tasks.Stop()
}

// startSweeper periodically evicts TTL-expired LRU entries, driven by the
// AP's clock (virtual under simulation, so sweeps are deterministic).
func (s *APServer) startSweeper() {
	s.tasks.Every("wicache.sweeper", time.Minute, func() { s.store.SweepExpired() })
}

// handlePurge applies purges relayed by the controller (either wire
// form): the Wi-Cache baseline has no stale-while-revalidate, so each
// copy is simply evicted.
func (s *APServer) handlePurge(req *httplite.Request) *httplite.Response {
	msgs, err := coherence.ParseMsgs(req.Body)
	if err != nil {
		return httplite.NewResponse(400, []byte(err.Error()))
	}
	for _, msg := range msgs {
		s.purges.Inc()
		s.store.Purge(msg.URL, msg.Version, msg.Gone, false)
	}
	return httplite.NewResponse(200, nil)
}

// Addr returns the AP's serving endpoint.
func (s *APServer) Addr() transport.Addr {
	return transport.Addr{Host: s.host.Name(), Port: s.listener.Addr().Port}
}

// handleChunk serves GET /chunk?u=<url>.
func (s *APServer) handleChunk(req *httplite.Request) *httplite.Response {
	if s.ProcessingDelay > 0 {
		s.env.Sleep(s.ProcessingDelay)
	}
	target := httplite.QueryParams(req.Path)["u"]
	if target == "" {
		return httplite.NewResponse(400, []byte("missing u"))
	}
	entry, ok := s.store.Get(dnswire.BasicURL(target))
	if !ok {
		return httplite.NewResponse(404, []byte("not cached"))
	}
	resp := httplite.NewResponse(200, entry.Data)
	resp.Set("X-Ape-Source", "wicache-ap")
	return resp
}

// handleFill executes a controller fill order: fetch from the edge, store
// under LRU, report the new content (and any evictions) back.
func (s *APServer) handleFill(req *httplite.Request) *httplite.Response {
	var lr locateRequest
	if err := json.Unmarshal(req.Body, &lr); err != nil {
		return httplite.NewResponse(400, []byte("bad fill body"))
	}
	basic := dnswire.BasicURL(lr.URL)
	before := residentURLs(s.store)

	edgeResp, err := s.client.Get(s.edgeAddr, dnswire.URLDomain(basic), dnswire.URLPath(basic))
	if err != nil || edgeResp.Status != 200 {
		return httplite.NewResponse(502, nil)
	}
	ttl := time.Duration(lr.TTLMin) * time.Minute
	if ttl <= 0 {
		ttl = 10 * time.Minute
	}
	prio := lr.Priority
	if prio != objstore.PriorityHigh {
		prio = objstore.PriorityLow
	}
	obj := &objstore.Object{URL: basic, App: lr.App, Size: len(edgeResp.Body), TTL: ttl, Priority: prio}
	s.store.RecordRequest(lr.App)
	if err := s.store.Put(obj, edgeResp.Body, 0); err != nil {
		return httplite.NewResponse(200, nil) // oversized: relayed nothing, not stored
	}
	s.fills.Inc()

	after := residentURLs(s.store)
	r := report{AP: s.name, Add: []string{basic}}
	for u := range before {
		if _, still := after[u]; !still {
			r.Del = append(r.Del, u)
		}
	}
	body, _ := json.Marshal(r)
	rreq := httplite.NewRequest("POST", s.controller.Host, "/report")
	rreq.Body = body
	_, _ = s.client.Do(s.controller, rreq)
	return httplite.NewResponse(200, nil)
}

func residentURLs(store *cachepolicy.Store) map[string]struct{} {
	out := make(map[string]struct{})
	for _, e := range store.Entries() {
		out[e.Object.URL] = struct{}{}
	}
	return out
}

// Client runs the Wi-Cache client workflow: locate at the controller,
// then fetch from the AP (hit) or the edge (miss).
type Client struct {
	env        vclock.Env
	http       *httplite.Client
	controller transport.Addr
	edgeAddr   transport.Addr
	app        string
	// homeAP names the AP this client associates with; the controller
	// directs fills there. Empty means "any".
	homeAP string
	// Declarations supply TTL/priority metadata per URL (same source as
	// the APE-CACHE registry so comparisons are apples-to-apples).
	meta  map[string]locateRequest
	stats Stats
}

// Stats mirrors apeclient.Stats for the baseline: Retrieval covers hits
// (the Fig 11c definition).
type Stats struct {
	Lookup    metrics.LatencyStats
	Retrieval metrics.LatencyStats
	Hits      metrics.HitStats
}

// NewClient builds a Wi-Cache client.
func NewClient(env vclock.Env, host transport.Host, app string, controller, edgeAddr transport.Addr) *Client {
	return &Client{
		env:        env,
		http:       httplite.NewClient(host),
		controller: controller,
		edgeAddr:   edgeAddr,
		app:        app,
		meta:       make(map[string]locateRequest),
	}
}

// SetHomeAP declares the AP this client associates with, steering fills.
func (c *Client) SetHomeAP(name string) { c.homeAP = name }

// Declare registers TTL/priority metadata for a cacheable URL.
func (c *Client) Declare(urlStr string, ttl time.Duration, priority int) {
	basic := dnswire.BasicURL(urlStr)
	c.meta[basic] = locateRequest{
		URL:      basic,
		TTLMin:   int(ttl / time.Minute),
		Priority: priority,
		App:      c.app,
	}
}

// Stats exposes the accumulated measurements.
func (c *Client) Stats() *Stats { return &c.stats }

// Get fetches a URL through the Wi-Cache workflow.
func (c *Client) Get(rawURL string) ([]byte, error) {
	basic := dnswire.BasicURL(rawURL)
	lr, ok := c.meta[basic]
	if !ok {
		lr = locateRequest{URL: basic, TTLMin: 10, Priority: objstore.PriorityLow, App: c.app}
	}
	lr.HomeAP = c.homeAP
	priority := lr.Priority
	if priority == 0 {
		priority = objstore.PriorityLow
	}

	// Stage 1 — locate at the controller.
	lookupStart := c.env.Now()
	body, _ := json.Marshal(lr)
	req := httplite.NewRequest("POST", c.controller.Host, "/locate")
	req.Body = body
	resp, err := c.http.Do(c.controller, req)
	if err != nil {
		return nil, fmt.Errorf("wicache: locate: %w", err)
	}
	c.stats.Lookup.Add(c.env.Now().Sub(lookupStart))

	hit := resp.Status == 200
	c.stats.Hits.Record(priority, hit)

	// Stage 2 — retrieval.
	retrievalStart := c.env.Now()
	var data []byte
	servedFromAP := false
	if hit {
		apAddr, perr := transport.ParseAddr(string(resp.Body))
		if perr != nil {
			return nil, fmt.Errorf("wicache: bad AP address %q: %w", resp.Body, perr)
		}
		chunk, gerr := c.http.Get(apAddr, apAddr.Host, "/chunk?u="+url.QueryEscape(basic))
		if gerr == nil && chunk.Status == 200 {
			data = chunk.Body
			servedFromAP = true
		}
	}
	if data == nil {
		edge, gerr := c.http.Get(c.edgeAddr, dnswire.URLDomain(basic), dnswire.URLPath(basic))
		if gerr != nil {
			return nil, fmt.Errorf("wicache: edge fetch: %w", gerr)
		}
		if edge.Status != 200 {
			return nil, fmt.Errorf("wicache: edge fetch %s: status %d", basic, edge.Status)
		}
		data = edge.Body
	}
	elapsed := c.env.Now().Sub(retrievalStart)
	if servedFromAP {
		c.stats.Retrieval.Add(elapsed)
	}
	return data, nil
}
