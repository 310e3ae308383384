package apcache

import (
	"fmt"
	"time"

	"apecache/internal/coherence"
	"apecache/internal/dnswire"
	"apecache/internal/httplite"
	"apecache/internal/objstore"
)

// Bus subscription retry schedule: the hub may come up after the AP in a
// real deployment, so the first attempts tolerate a cold edge.
const (
	subscribeAttempts = 3
	subscribeBackoff  = 200 * time.Millisecond
)

// Delegation-coalescing poll parameters. Followers wait for the leader's
// edge fetch by sleeping — bare channel waits are forbidden under the
// simulated clock — and give up after delegateWaitRounds to fetch on
// their own (leader failed or the object was block-listed).
const (
	delegatePollInterval = 2 * time.Millisecond
	delegateWaitRounds   = 500
)

// subscribeBus registers the AP's /purge endpoint with the coherence
// hub, carrying the AP's domain interest and batch capability when the
// config declares them (the default registration marshals byte-identical
// to the legacy form, so plain deployments stay on the old wire).
func (ap *AP) subscribeBus() error {
	bus := ap.cfg.BusAddr
	if bus.IsZero() {
		bus = ap.cfg.EdgeAddr
	}
	sub := coherence.Subscription{
		Addr:    ap.HTTPAddr(),
		Path:    coherence.DefaultPurgePath,
		Domains: ap.cfg.PurgeDomains,
		Batch:   ap.cfg.PurgeBatch,
	}
	var err error
	for attempt := 0; attempt < subscribeAttempts; attempt++ {
		if attempt > 0 {
			ap.cfg.Env.Sleep(subscribeBackoff)
		}
		err = coherence.SubscribeWith(ap.edge, bus, sub)
		if err == nil {
			return nil
		}
	}
	return fmt.Errorf("coherence subscribe (%s): %w", ap.cfg.Coherence, err)
}

// handlePurge serves POST /purge: relayed bus messages in either wire
// form (a single Msg, or a MsgBatch when the AP subscribed with
// PurgeBatch). ModeInvalidate evicts each copy; ModeSWR keeps it
// servable once and starts a background conditional re-fetch.
func (ap *AP) handlePurge(req *httplite.Request) *httplite.Response {
	msgs, err := coherence.ParseMsgs(req.Body)
	if err != nil {
		return httplite.NewResponse(400, []byte(err.Error()))
	}
	keepStale := ap.cfg.Coherence == coherence.ModeSWR
	bumped := false
	for _, msg := range msgs {
		ap.purges.Inc()
		_, stale := ap.store.Purge(msg.URL, msg.Version, msg.Gone, keepStale)
		if !bumped && ap.mesh != nil && ap.mesh.publisher != nil {
			// The published summary may still advertise the purged bytes;
			// bump the generation so the next publication supersedes it.
			ap.mesh.publisher.Bump()
			bumped = true
		}
		if stale {
			url := msg.URL
			ap.cfg.Env.Go("apcache.revalidate", func() { ap.revalidate(url, true) })
		}
	}
	return httplite.NewResponse(200, nil)
}

// revalidate runs the stale-while-revalidate background refresh. At most
// one revalidation per URL runs at a time (singleflight). A purge-spawned
// call (rerun) that finds one in flight makes it run once more: the
// fetch in flight may return the version this purge just superseded,
// which the store's version gate then rejects.
func (ap *AP) revalidate(url string, rerun bool) {
	ap.mu.Lock()
	if again, busy := ap.revalidating[url]; busy {
		ap.revalidating[url] = again || rerun
		ap.mu.Unlock()
		return
	}
	for again := true; again; {
		ap.revalidating[url] = false
		ap.mu.Unlock()
		ap.revalidateOnce(url)
		ap.mu.Lock()
		again = ap.revalidating[url]
	}
	delete(ap.revalidating, url)
	ap.mu.Unlock()
}

// revalidateOnce is one conditional GET against the edge with the held
// version as validator. 304 re-leases the resident bytes, 200 replaces
// them with the new version, 404/410 evicts and negative-caches.
func (ap *AP) revalidateOnce(url string) {
	entry, ok := ap.store.Peek(url)
	if !ok {
		return
	}
	held := entry.Version
	obj := entry.Object

	req := httplite.NewRequest("GET", dnswire.URLDomain(url), dnswire.URLPath(url))
	req.Set("If-None-Match", coherence.FormatETag(held))
	start := ap.cfg.Env.Now()
	resp, err := ap.edge.Do(ap.cfg.EdgeAddr, req)
	ap.revalidations.Inc()
	if err != nil {
		// Network failure degrades to TTL-only: the stale mark stays, the
		// entry stops being served once its allowance is spent, and the
		// next delegation refreshes it.
		return
	}
	switch resp.Status {
	case 304:
		v := held
		if pv, pok := coherence.ParseETag(resp.Get("ETag")); pok {
			v = pv
		}
		ap.store.Revalidated(url, v)
	case 200:
		version, _ := coherence.ParseETag(resp.Get("ETag"))
		fresh := &objstore.Object{
			URL:      url,
			App:      obj.App,
			Size:     len(resp.Body),
			TTL:      obj.TTL,
			Priority: obj.Priority,
			Version:  version,
		}
		_ = ap.store.Put(fresh, resp.Body, ap.cfg.Env.Now().Sub(start))
	case 404, 410:
		ap.store.MarkGone(url)
	}
}

// awaitDelegation is the follower side of delegation singleflight: if a
// leader is already fetching url from the edge, wait for it and serve the
// cached result. Returns ok=false when the caller is the leader (and must
// call releaseDelegation) — including after a timed-out wait.
func (ap *AP) awaitDelegation(url string) ([]byte, bool) {
	ap.mu.Lock()
	if !ap.delegating[url] {
		ap.delegating[url] = true
		ap.mu.Unlock()
		return nil, false
	}
	ap.mu.Unlock()
	for range delegateWaitRounds {
		ap.cfg.Env.Sleep(delegatePollInterval)
		ap.mu.Lock()
		busy := ap.delegating[url]
		ap.mu.Unlock()
		if !busy {
			break
		}
	}
	if e, ok := ap.store.Get(url); ok {
		return e.Data, true
	}
	// The leader failed, or the object is block-listed/gated: fetch on
	// our own rather than failing the client.
	ap.mu.Lock()
	ap.delegating[url] = true
	ap.mu.Unlock()
	return nil, false
}

// releaseDelegation ends a leader's singleflight claim.
func (ap *AP) releaseDelegation(url string) {
	ap.mu.Lock()
	delete(ap.delegating, url)
	ap.mu.Unlock()
}
