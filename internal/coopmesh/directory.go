package coopmesh

import (
	"encoding/json"
	"sort"
	"sync"
	"time"

	"apecache/internal/dnswire"
	"apecache/internal/httplite"
	"apecache/internal/telemetry"
	"apecache/internal/transport"
	"apecache/internal/vclock"
)

// Directory is the mesh half of the control plane
// (internal/controlplane): it ingests published summaries into a peer table and
// answers "who likely holds this URL" lookups. It is deliberately
// advisory — a stale or false-positive answer costs the requester one
// wasted LAN round trip before the ordinary edge fallback.
type Directory struct {
	env vclock.Env

	mu    sync.Mutex
	peers map[string]*peerState
	// tombs records when the directory last saw a coherence purge for a
	// URL; summaries received at or before that instant may still claim
	// the purged bytes, so Lookup skips those peers for the URL.
	tombs map[string]time.Time

	// summaries counts accepted publications, lookups all lookup
	// requests, lookupHits lookups answering >= 1 candidate, purges
	// tombstones recorded.
	summaries  telemetry.Counter
	lookups    telemetry.Counter
	lookupHits telemetry.Counter
	purges     telemetry.Counter
	staleSeqC  *telemetry.Counter
}

// peerState is one node's latest summary and when it arrived.
type peerState struct {
	sum      *Summary
	received time.Time
}

// NewDirectory builds an empty directory.
func NewDirectory(env vclock.Env) *Directory {
	return &Directory{
		env:   env,
		peers: make(map[string]*peerState),
		tombs: make(map[string]time.Time),
	}
}

// Instrument registers the directory's counters and a summary-staleness
// gauge on the control plane's telemetry bundle.
func (d *Directory) Instrument(tel *telemetry.Telemetry) {
	if tel == nil {
		return
	}
	m := tel.Metrics
	m.Attach("coopmesh_summaries_total", "", "mesh content summaries accepted", &d.summaries)
	d.staleSeqC = m.Counter("coopmesh_summaries_stale_total", "mesh summaries dropped for stale sequence numbers")
	m.Attach("coopmesh_lookups_total", "", "mesh directory lookups served", &d.lookups)
	m.Attach("coopmesh_lookup_hits_total", "", "mesh lookups answered with at least one candidate peer", &d.lookupHits)
	m.Attach("coopmesh_purge_tombstones_total", "", "purge tombstones recorded against published summaries", &d.purges)
	m.GaugeFunc("coopmesh_peers", "APs with a live published summary", func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return float64(len(d.peers))
	})
	m.GaugeFunc("coopmesh_summary_age_max_seconds", "age of the stalest published summary", func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		now := d.env.Now()
		max := 0.0
		for _, p := range d.peers {
			if age := now.Sub(p.received).Seconds(); age > max {
				max = age
			}
		}
		return max
	})
}

// Mount registers the directory's routes on the control plane's mux.
func (d *Directory) Mount(mux *httplite.Mux) {
	mux.HandleFunc(PathSummary, d.handleSummary)
	mux.HandleFunc(PathLookup, d.handleLookup)
	mux.HandleFunc(PathPeers, d.handlePeers)
}

// Ingest installs a published summary. Out-of-order deliveries (a seq at
// or below the last accepted one for the node) are dropped so a delayed
// older summary cannot overwrite a newer picture of the cache.
func (d *Directory) Ingest(s *Summary) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if prev, ok := d.peers[s.Node]; ok && s.Seq <= prev.sum.Seq {
		d.staleSeqC.Inc()
		return nil // idempotent: re-delivery and reordering are not errors
	}
	d.peers[s.Node] = &peerState{sum: s, received: d.env.Now()}
	d.summaries.Inc()
	return nil
}

// Purge tombstones a URL: peers whose current summary predates this
// moment are no longer offered for it, until they publish again.
func (d *Directory) Purge(rawURL string) {
	basic := dnswire.BasicURL(rawURL)
	d.mu.Lock()
	d.tombs[basic] = d.env.Now()
	d.purges.Inc()
	d.mu.Unlock()
}

// Lookup returns the peers whose summaries claim the URL, excluding the
// requester itself and any peer whose summary predates the URL's purge
// tombstone. Candidates are ordered freshest-summary-first (node name
// breaking ties) so the requester's first try is the best-informed one.
func (d *Directory) Lookup(rawURL, from string) []Candidate {
	basic := dnswire.BasicURL(rawURL)
	h := dnswire.HashURL(basic)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.lookups.Inc()
	now := d.env.Now()
	tomb, tombed := d.tombs[basic]
	var out []Candidate
	for node, p := range d.peers {
		if node == from {
			continue
		}
		if tombed && !p.received.After(tomb) {
			continue // summary may predate the purge: don't offer stale bytes
		}
		if !p.sum.Bloom.MayContain(h) {
			continue
		}
		out = append(out, Candidate{Node: node, Addr: p.sum.Addr, AgeSec: now.Sub(p.received).Seconds()})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].AgeSec != out[j].AgeSec {
			return out[i].AgeSec < out[j].AgeSec
		}
		return out[i].Node < out[j].Node
	})
	if len(out) > 0 {
		d.lookupHits.Inc()
	}
	return out
}

// PeerInfo is one row of the /mesh/peers listing.
type PeerInfo struct {
	Node       string         `json:"node"`
	Addr       transport.Addr `json:"addr"`
	Entries    int            `json:"entries"`
	Domains    int            `json:"domains"`
	Seq        uint64         `json:"seq"`
	Generation uint64         `json:"generation"`
	AgeSec     float64        `json:"age_sec"`
}

// Peers snapshots the peer table for operators (apectl peers).
func (d *Directory) Peers() []PeerInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.env.Now()
	out := make([]PeerInfo, 0, len(d.peers))
	for node, p := range d.peers {
		out = append(out, PeerInfo{
			Node: node, Addr: p.sum.Addr,
			Entries: p.sum.Entries, Domains: len(p.sum.Domains),
			Seq: p.sum.Seq, Generation: p.sum.Generation,
			AgeSec: now.Sub(p.received).Seconds(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// handleSummary serves POST /mesh/summary.
func (d *Directory) handleSummary(req *httplite.Request) *httplite.Response {
	s, err := DecodeSummary(req.Body)
	if err != nil {
		return httplite.NewResponse(400, []byte(err.Error()))
	}
	if err := d.Ingest(s); err != nil {
		return httplite.NewResponse(409, []byte(err.Error()))
	}
	return httplite.NewResponse(200, nil)
}

// handleLookup serves GET /mesh/lookup?u=<url>&from=<node>.
func (d *Directory) handleLookup(req *httplite.Request) *httplite.Response {
	params := httplite.QueryParams(req.Path)
	target := params["u"]
	if target == "" {
		return httplite.NewResponse(400, []byte("missing u parameter"))
	}
	body, err := json.Marshal(d.Lookup(target, params["from"]))
	if err != nil {
		return httplite.NewResponse(500, []byte(err.Error()))
	}
	resp := httplite.NewResponse(200, body)
	resp.Set("Content-Type", "application/json")
	return resp
}

// handlePeers serves GET /mesh/peers.
func (d *Directory) handlePeers(req *httplite.Request) *httplite.Response {
	body, err := json.MarshalIndent(d.Peers(), "", "  ")
	if err != nil {
		return httplite.NewResponse(500, []byte(err.Error()))
	}
	resp := httplite.NewResponse(200, body)
	resp.Set("Content-Type", "application/json")
	return resp
}
