package apcache

import (
	"strconv"
	"strings"
	"time"

	"apecache/internal/coherence"
	"apecache/internal/dnswire"
	"apecache/internal/httplite"
	"apecache/internal/objstore"
)

// Dependency-driven prefetching is the extension the paper sketches in
// its related-work discussion: "by sending the request dependency
// information to the APE-CACHE-enabled AP to prefetch data, thereby
// reducing cache misses" (the APPx-style integration). When a client
// delegates a request, it may attach the objects that its app will fetch
// next (the successors in the request DAG) in the X-Ape-Prefetch header;
// the AP then warms those objects in the background so the follow-up
// requests, arriving one app-stage later, hit.
//
// Header format, one clause per dependent object, comma separated:
//
//	X-Ape-Prefetch: <url>;ttl=<minutes>;priority=<1|2>, ...
//
// Prefetching is bounded (maxPrefetchPerRequest) and best-effort: fetch
// errors are dropped, oversized objects land on the block list exactly as
// a delegated fetch would.

// maxPrefetchPerRequest bounds the fan-out one delegation can trigger.
const maxPrefetchPerRequest = 8

// prefetchSpec is one parsed X-Ape-Prefetch clause.
type prefetchSpec struct {
	url      string
	ttl      time.Duration
	priority int
}

// parsePrefetchHeader parses the X-Ape-Prefetch header value.
func parsePrefetchHeader(value string) []prefetchSpec {
	if value == "" {
		return nil
	}
	var specs []prefetchSpec
	for _, clause := range strings.Split(value, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		parts := strings.Split(clause, ";")
		spec := prefetchSpec{
			url:      dnswire.BasicURL(strings.TrimSpace(parts[0])),
			ttl:      10 * time.Minute,
			priority: objstore.PriorityLow,
		}
		if spec.url == "" {
			continue
		}
		for _, attr := range parts[1:] {
			key, val, ok := strings.Cut(strings.TrimSpace(attr), "=")
			if !ok {
				continue
			}
			switch key {
			case "ttl":
				if minutes, err := strconv.Atoi(val); err == nil && minutes > 0 {
					spec.ttl = time.Duration(minutes) * time.Minute
				}
			case "priority":
				if p, err := strconv.Atoi(val); err == nil && p == objstore.PriorityHigh {
					spec.priority = objstore.PriorityHigh
				}
			}
		}
		specs = append(specs, spec)
		if len(specs) == maxPrefetchPerRequest {
			break
		}
	}
	return specs
}

// schedulePrefetch warms the given objects in background tasks. The app
// name attributes the objects for PACM's frequency accounting.
func (ap *AP) schedulePrefetch(app string, specs []prefetchSpec) {
	for _, spec := range specs {
		spec := spec
		if ap.store.Flag(spec.url) == dnswire.FlagCacheHit || ap.store.Blocked(spec.url) {
			continue // already warm or refused
		}
		ap.prefetches.Inc()
		ap.cfg.Env.Go("apcache.prefetch", func() {
			start := ap.cfg.Env.Now()
			resp, err := ap.edge.Get(ap.cfg.EdgeAddr, dnswire.URLDomain(spec.url), dnswire.URLPath(spec.url))
			if err != nil || resp.Status != 200 {
				return
			}
			fetchLatency := ap.cfg.Env.Now().Sub(start)
			version, _ := coherence.ParseETag(resp.Get("ETag"))
			obj := &objstore.Object{
				URL:      spec.url,
				App:      app,
				Size:     len(resp.Body),
				TTL:      spec.ttl,
				Priority: spec.priority,
				Version:  version,
			}
			ap.account(OpPACMRun, ap.store.Len())
			ap.account(OpDelegation, len(resp.Body))
			if err := ap.store.Put(obj, resp.Body, fetchLatency); err == nil {
				ap.tel.prefetchFills.Inc()
				ap.trackPrefetchFill(spec.url, int64(len(resp.Body)))
			}
		})
	}
}

// maxTrackedPrefetches bounds the precision/recall tracking map; fills
// past the bound still count as fills, they just drop out of the
// used/wasted attribution.
const maxTrackedPrefetches = 4096

// trackPrefetchFill remembers a prefetch-admitted URL until it serves a
// hit (counted used) or leaves the cache unserved (counted wasted).
func (ap *AP) trackPrefetchFill(url string, bytes int64) {
	ap.prefMu.Lock()
	if ap.prefTracked == nil {
		ap.prefTracked = make(map[string]int64)
	}
	if len(ap.prefTracked) < maxTrackedPrefetches {
		if _, ok := ap.prefTracked[url]; !ok {
			ap.prefPending.Add(1)
		}
		ap.prefTracked[url] = bytes
	}
	ap.prefMu.Unlock()
}

// notePrefetchUse credits a cache hit to its prefetch fill. The caller
// has already checked the prefPending fast-path gate, so ordinary serves
// on APs without prefetch traffic never touch the lock.
func (ap *AP) notePrefetchUse(url string) {
	ap.prefMu.Lock()
	if _, ok := ap.prefTracked[url]; ok {
		delete(ap.prefTracked, url)
		ap.prefPending.Add(-1)
		ap.tel.prefetchUsed.Inc()
	}
	ap.prefMu.Unlock()
}

// reapPrefetchWaste charges tracked fills that left the cache (evicted,
// expired, or purged stale) without serving a hit as wasted bytes. The
// background sweeper drives it on its cadence.
func (ap *AP) reapPrefetchWaste() {
	if ap.prefPending.Load() == 0 {
		return
	}
	now := ap.cfg.Env.Now()
	ap.prefMu.Lock()
	for url, bytes := range ap.prefTracked {
		if e, ok := ap.store.Peek(url); ok && e.Fresh(now) && !e.Stale {
			continue // still servable; keep waiting
		}
		delete(ap.prefTracked, url)
		ap.prefPending.Add(-1)
		ap.tel.prefetchWaste.Add(bytes)
	}
	ap.prefMu.Unlock()
}

// maybePrefetch inspects a delegation request for prefetch hints.
func (ap *AP) maybePrefetch(req *httplite.Request, app string) {
	specs := parsePrefetchHeader(req.Get("X-Ape-Prefetch"))
	if len(specs) == 0 {
		return
	}
	ap.schedulePrefetch(app, specs)
}
