package apcache

import (
	"fmt"
	"sync"
	"time"

	"apecache/internal/coherence"
	"apecache/internal/dnswire"
	"apecache/internal/httplite"
	"apecache/internal/objstore"
	"apecache/internal/vclock"
)

// Bus subscription retry schedule: the hub may come up after the AP in a
// real deployment, so the first attempts tolerate a cold edge.
const (
	subscribeAttempts = 3
	subscribeBackoff  = 200 * time.Millisecond
)

// delegateWait bounds how long a delegation follower waits for its
// leader's edge fetch before fetching on its own.
const delegateWait = time.Second

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
			ap.tasks.Go("apcache.revalidate", func() { ap.revalidate(url, true) })
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
	if _, lead := ap.refreshes.join(url, rerun); !lead {
		return
	}
	for {
		ap.revalidateOnce(url)
		if !ap.refreshes.land(url) {
			return
		}
	}
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

// awaitDelegation is the follower side of delegation singleflight: it
// waits for the leader's flight f to land — at most delegateWait — and
// serves what the leader left in the store. ok=false means the leader
// failed, or the object is block-listed or gated: the follower then
// fetches on its own rather than failing the client.
func (ap *AP) awaitDelegation(f *flight, url string) ([]byte, bool) {
	f.done.WaitTimeout(delegateWait)
	if e, ok := ap.store.Get(url); ok {
		return e.Data, true
	}
	return nil, false
}

// flights is a keyed singleflight: at most one leader per key at a time.
// Followers wait on the flight's Event, which the leader fires when it
// lands, instead of polling.
type flights struct {
	env vclock.Env
	mu  sync.Mutex
	m   map[string]*flight
}

// flight is one key's call in progress. rerun asks the leader to run
// once more before it lands.
type flight struct {
	done  *vclock.Event
	rerun bool
}

// join returns key's flight in progress, marking it for a rerun if asked,
// or starts one that the caller leads (lead true) and must end with land.
func (fs *flights) join(key string, rerun bool) (f *flight, lead bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f := fs.m[key]; f != nil {
		f.rerun = f.rerun || rerun
		return f, false
	}
	if fs.m == nil {
		fs.m = make(map[string]*flight)
	}
	f = &flight{done: vclock.NewEvent(fs.env, "apcache.flight")}
	fs.m[key] = f
	return f, true
}

// land ends key's flight and wakes its followers, unless a rerun was
// asked for: then it clears the request, keeps the flight and returns
// true, and the leader runs again.
func (fs *flights) land(key string) (again bool) {
	fs.mu.Lock()
	f := fs.m[key]
	if f.rerun {
		f.rerun = false
		fs.mu.Unlock()
		return true
	}
	delete(fs.m, key)
	fs.mu.Unlock()
	f.done.Fire()
	return false
}
