package apcache

import (
	"encoding/json"
	"net/url"
	"strconv"
	"sync"
	"time"

	"apecache/internal/coherence"
	"apecache/internal/coopmesh"
	"apecache/internal/decisionlog"
	"apecache/internal/httplite"
	"apecache/internal/objstore"
	"apecache/internal/telemetry"
)

// peerCandidateCap bounds how many directory candidates one miss tries
// before falling back to the edge: a Bloom false positive costs at most
// two LAN round trips, never a walk of the whole mesh.
const peerCandidateCap = 2

// ewmaAlpha is the smoothing factor of the peer/edge RTT models backing
// the latency-aware gate (LAC's rule: fetch from a peer only when its
// expected latency beats the edge path).
const ewmaAlpha = 0.3

// meshState is the per-AP cooperative-mesh runtime: the summary
// publisher plus the RTT models the peer-vs-edge gate reads. Allocated
// only when Config.MeshAddr is set, so mesh-off APs carry no mesh state
// and take no mesh locks.
type meshState struct {
	publisher *coopmesh.Publisher

	mu       sync.Mutex
	edgeEWMA time.Duration
	peerEWMA map[string]time.Duration
}

// meshTel holds the mesh instruments. The zero value (mesh disabled) is
// all nil counters, which no-op — and keeps the registered metric
// families of mesh-off runs byte-identical to the pre-mesh ones.
type meshTel struct {
	gateSkips  *telemetry.Counter
	peerServes *telemetry.Counter
	peerSecs   *telemetry.Histogram
}

// newMeshTel registers the mesh instruments and attaches the AP's peer
// counters.
func newMeshTel(tel *telemetry.Telemetry, ap *AP) *meshTel {
	m := tel.Metrics
	m.Attach("apcache_peer_hits_total", "", "misses served by a mesh peer instead of the edge", &ap.peerHits)
	m.Attach("apcache_peer_bytes_total", "", "bytes fetched from mesh peers", &ap.peerBytes)
	m.Attach("apcache_peer_fallbacks_total", "", "peer fetches that missed (Bloom false positive or eviction) and fell back to the edge", &ap.peerFallbacks)
	return &meshTel{
		gateSkips:  m.Counter("apcache_peer_gate_skips_total", "peer candidates skipped because modeled peer RTT >= edge RTT"),
		peerServes: m.Counter("apcache_peer_serves_total", "cache serves answering another AP's peer fetch"),
		peerSecs:   m.Histogram("apcache_peer_fetch_seconds", "peer retrieval latency per mesh fetch (virtual time under simnet)", telemetry.DurationBuckets),
	}
}

// startMesh builds and starts the summary publisher; called from Start
// before the coherence subscription so a purge can never observe a
// half-initialized publisher.
func (ap *AP) startMesh() error {
	pub, err := coopmesh.NewPublisher(coopmesh.PublisherConfig{
		Env:       ap.cfg.Env,
		Host:      ap.cfg.Host,
		Node:      ap.nodeName(),
		Addr:      ap.HTTPAddr(),
		Target:    ap.cfg.MeshAddr,
		Store:     ap.store,
		Interval:  ap.cfg.MeshInterval,
		Telemetry: ap.cfg.Telemetry,
	})
	if err != nil {
		return err
	}
	ap.mesh.publisher = pub
	pub.Start()
	return nil
}

// observeEdge folds one measured edge retrieval into the gate's edge RTT
// model.
func (ap *AP) observeEdge(rtt time.Duration) {
	ap.mesh.mu.Lock()
	defer ap.mesh.mu.Unlock()
	if ap.mesh.edgeEWMA == 0 {
		ap.mesh.edgeEWMA = rtt
		return
	}
	ap.mesh.edgeEWMA += time.Duration(float64(rtt-ap.mesh.edgeEWMA) * ewmaAlpha)
}

// observePeer folds one measured peer round trip (hit or miss — the wire
// cost is what the gate models) into that peer's RTT model.
func (ap *AP) observePeer(node string, rtt time.Duration) {
	ap.mesh.mu.Lock()
	defer ap.mesh.mu.Unlock()
	old, ok := ap.mesh.peerEWMA[node]
	if !ok {
		ap.mesh.peerEWMA[node] = rtt
		return
	}
	ap.mesh.peerEWMA[node] = old + time.Duration(float64(rtt-old)*ewmaAlpha)
}

// peerGateOpen applies the latency-aware gate: skip the peer when its
// modeled RTT is at or above the modeled edge RTT. With no sample yet for
// either side the gate stays open — the first try is how the model
// learns, and a wrong first guess costs one LAN round trip.
func (ap *AP) peerGateOpen(node string) bool {
	ap.mesh.mu.Lock()
	defer ap.mesh.mu.Unlock()
	peer, ok := ap.mesh.peerEWMA[node]
	if !ok || ap.mesh.edgeEWMA == 0 {
		return true
	}
	return peer < ap.mesh.edgeEWMA
}

// lookupPeers asks the mesh directory which peers likely hold the URL.
func (ap *AP) lookupPeers(basic string) []coopmesh.Candidate {
	path := coopmesh.PathLookup + "?u=" + url.QueryEscape(basic) + "&from=" + url.QueryEscape(ap.nodeName())
	resp, err := ap.edge.Get(ap.cfg.MeshAddr, ap.cfg.MeshAddr.Host, path)
	if err != nil || resp.Status != 200 {
		return nil
	}
	var cands []coopmesh.Candidate
	if json.Unmarshal(resp.Body, &cands) != nil {
		return nil
	}
	return cands
}

// tryPeerFetch is the mesh tier of the miss path: consult the directory,
// fetch from the best candidate peer under the latency gate, and fill
// the local cache exactly like an edge fill (version-gated against the
// purge high-water mark). ok=false sends the caller down the ordinary
// edge delegation; a directory positive that yields no object counts as
// a false-positive fallback.
func (ap *AP) tryPeerFetch(basic, app string, priority int, trace telemetry.TraceID) (*httplite.Response, bool) {
	if ap.mesh == nil {
		return nil, false
	}
	cands := ap.lookupPeers(basic)
	if len(cands) == 0 {
		return nil, false
	}
	tried := 0
	for _, c := range cands {
		if tried >= peerCandidateCap {
			break
		}
		if !ap.peerGateOpen(c.Node) {
			ap.mtel.gateSkips.Inc()
			continue
		}
		tried++
		preq := httplite.NewRequest("GET", c.Addr.Host, "/cache?u="+url.QueryEscape(basic))
		preq.Set("X-Ape-Peer", ap.nodeName())
		if trace != 0 {
			preq.Set(telemetry.TraceHeader, trace.String())
		}
		start := ap.cfg.Env.Now()
		resp, err := ap.edge.Do(c.Addr, preq)
		rtt := ap.cfg.Env.Now().Sub(start)
		if err != nil {
			continue
		}
		ap.observePeer(c.Node, rtt)
		if resp.Status != 200 {
			continue // peer evicted/expired it since publishing: try the next
		}
		freshMs, _ := strconv.ParseInt(resp.Get("X-Ape-Fresh-Ms"), 10, 64)
		if freshMs <= 0 {
			continue // expiring as we speak: not worth caching or serving
		}
		version, _ := coherence.ParseETag(resp.Get("ETag"))
		obj := &objstore.Object{
			URL:      basic,
			App:      app,
			Size:     len(resp.Body),
			TTL:      time.Duration(freshMs) * time.Millisecond,
			Priority: priority,
			Version:  version,
		}
		ap.account(OpDelegation, len(resp.Body))
		ap.account(OpPACMRun, ap.store.Len())
		if ap.ledger != nil {
			// Peer-fill twin of the delegation classify site: attribute
			// the miss before the Put rewrites the URL's history (pairs
			// with the peer-hits counter in the instrument identity).
			ap.ledger.Classify(basic, ap.cfg.Env.Now())
		}
		_ = ap.store.Put(obj, resp.Body, rtt) // ErrBlocked/ErrStaleVersion is fine: relay anyway
		if ap.ledger != nil {
			// Mark the fill as mesh-sourced on top of the store's own
			// admit/update record.
			ap.ledger.Record(decisionlog.Event{Time: ap.cfg.Env.Now(),
				Op: decisionlog.OpPeerFill, URL: basic, App: app,
				Size: int64(len(resp.Body)), Version: version,
				Expiry: ap.cfg.Env.Now().Add(obj.TTL)})
		}
		ap.peerHits.Inc()
		ap.peerBytes.Add(int64(len(resp.Body)))
		ap.mtel.peerSecs.ObserveDuration(rtt)
		out := httplite.NewResponse(200, resp.Body)
		out.Set("X-Ape-Source", "ap-peer")
		return out, true
	}
	if tried > 0 {
		ap.peerFallbacks.Inc()
		if ap.ledger != nil {
			// Every tried peer failed; the delegation falls back to the
			// edge. Until an edge fill supersedes this record, misses on
			// the URL attribute to the peer tier.
			ap.ledger.Record(decisionlog.Event{Time: ap.cfg.Env.Now(),
				Op: decisionlog.OpPeerFail, URL: basic, App: app})
		}
	}
	return nil, false
}
