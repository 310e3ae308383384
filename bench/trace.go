package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"apecache/internal/dnsd"
	"apecache/internal/dnswire"
	"apecache/internal/httplite"
)

// Span names: one root per op and a child around each call into a layer.
const (
	spanOp = iota
	spanBuild
	spanLookup
	spanParse
	spanFetchHit
	spanFetchMiss
	spanVerify
)

var spanNames = [...]string{"op", "build-query", "lookup", "parse-flags", "fetch-hit", "fetch-miss", "verify"}

// span is one recorded interval; its id is its index in the log plus one,
// parent 0 marks a root. Times are nanoseconds since the log began.
type span struct {
	op, parent int32
	name       uint8
	start, end int64
}

// spanLog holds spans in a preallocated slice until the run ends. A nil
// log records nothing, so the same client code runs traced and untraced.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog(capacity int) *spanLog {
	return &spanLog{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (l *spanLog) begin(op, parent int32, name uint8) int32 {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, span{op: op, parent: parent, name: name, start: int64(time.Since(l.t0))})
	return int32(len(l.spans))
}

func (l *spanLog) end(id int32) {
	if l != nil {
		l.spans[id-1].end = int64(time.Since(l.t0))
	}
}

// write stores the log as one JSON document.
func (l *spanLog) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, `{"workload":%q,"seed":%d,"unit":"ns","spans":[`, workload, seed)
	for i, s := range l.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n"+`{"op":%d,"id":%d,"parent":%d,"name":%q,"start":%d,"end":%d}`,
			s.op, i+1, s.parent, spanNames[s.name], s.start, s.end)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durations returns, per span name, the sorted durations, plus the sorted
// self times of the roots (root minus its children).
func (l *spanLog) durations() (byName [len(spanNames)][]time.Duration, rootSelf []time.Duration) {
	children := make(map[int32]int64)
	for _, s := range l.spans {
		byName[s.name] = append(byName[s.name], time.Duration(s.end-s.start))
		if s.parent != 0 {
			children[s.parent] += s.end - s.start
		}
	}
	for i, s := range l.spans {
		if s.parent == 0 {
			rootSelf = append(rootSelf, time.Duration(s.end-s.start-children[int32(i+1)]))
		}
	}
	for i := range byName {
		slices.Sort(byName[i])
	}
	slices.Sort(rootSelf)
	return byName, rootSelf
}

// unrolled is a client that makes the same public calls apeclient.Get
// makes — build the DNS-Cache query, dnsd.Query, parse the flags, fetch
// from /cache or /delegate — with everything apeclient derives per call
// (registry scan, hashing, escaping, flag map, stats) precomputed. The
// difference to apeclient.Get is apeclient's own cost; with a span log it
// is also the traced client.
type unrolled struct {
	c      *loadClient
	http   *httplite.Client
	rng    *rand.Rand
	log    *spanLog
	ops    int32
	misses int // ops that went to /delegate
	// forceMiss sends every op to /delegate whatever the flag says, to
	// sample the miss path on workloads that never miss.
	forceMiss bool
}

func newUnrolled(c *loadClient) *unrolled {
	return &unrolled{c: c, http: httplite.NewClient(c.host), rng: rand.New(rand.NewSource(int64(c.id) + 77))}
}

func (u *unrolled) get(o *object, t *tally) time.Duration {
	log, op := u.log, u.ops
	u.ops++
	apDNS, apHTTP := u.c.st.ap.DNSAddr(), u.c.st.ap.HTTPAddr()
	began := time.Now()
	root := log.begin(op, 0, spanOp)
	defer log.end(root)
	t.attempted++

	s := log.begin(op, root, spanBuild)
	q := cacheQuery(uint16(u.rng.Intn(1<<16)), o.domain, u.c.st.in.entries[o.domain])
	log.end(s)

	s = log.begin(op, root, spanLookup)
	resp, err := dnsd.Query(u.c.host, apDNS, q, time.Second)
	log.end(s)
	if err != nil {
		t.noteErr(err)
		return time.Since(began)
	}

	s = log.begin(op, root, spanParse)
	flag := dnswire.FlagDelegation
	if rr, ok := resp.FindCacheRR(dnswire.ClassCacheResponse); ok {
		parsed, err := dnswire.ParseCacheRR(rr)
		if err != nil {
			t.noteErr(err)
			return time.Since(began)
		}
		for _, e := range parsed {
			if e.Hash == o.hash {
				flag = e.Flag
				break
			}
		}
	}
	log.end(s)

	var body []byte
	if !u.forceMiss && (flag == dnswire.FlagCacheHit || flag == dnswire.FlagStale) {
		s = log.begin(op, root, spanFetchHit)
		r, err := u.http.Do(apHTTP, httplite.NewRequest("GET", apHTTP.Host, o.cachePath))
		log.end(s)
		if err == nil && r.Status == 200 {
			body = r.Body
		}
	}
	if body == nil {
		u.misses++
		s = log.begin(op, root, spanFetchMiss)
		r, err := u.http.Do(apHTTP, o.delegateRequest(apHTTP.Host))
		log.end(s)
		if err == nil && r.Status != 200 {
			err = fmt.Errorf("delegate %s: status %d", o.url, r.Status)
		}
		if err != nil {
			t.noteErr(err)
			return time.Since(began)
		}
		body = r.Body
	}
	lat := time.Since(began)

	s = log.begin(op, root, spanVerify)
	switch o.verify(body, began) {
	case bodyWrong:
		t.wrong++
	case bodyStale:
		t.stale++
	}
	log.end(s)
	return lat
}

// serial drives one client alone, one op in flight, for d or — when ops
// is positive — for exactly that many ops.
func serial(c *loadClient, d time.Duration, ops int, get func(*object, *tally) time.Duration) (tally, []time.Duration) {
	var t tally
	lat := make([]time.Duration, 0, int(d.Seconds()*25000)+ops+1024)
	deadline := time.Now().Add(d)
	for i := 0; (ops > 0 && i < ops) || (ops <= 0 && time.Now().Before(deadline)); i++ {
		lat = append(lat, get(c.next(&t), &t))
	}
	slices.Sort(lat)
	return t, lat
}

// openLoop sends at a fixed total rate whatever the system does: each
// client issues its i-th op when it is due, latency counts from the due
// time, and late records how far behind its schedule the generator ran.
func openLoop(clients []*loadClient, rate int, d time.Duration) (total tally, lat, late []time.Duration) {
	var (
		wg       sync.WaitGroup
		tallies  = make([]tally, len(clients))
		lats     = make([][]time.Duration, len(clients))
		lates    = make([][]time.Duration, len(clients))
		interval = time.Second * time.Duration(len(clients)) / time.Duration(rate)
		start    = time.Now()
	)
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *loadClient) {
			defer wg.Done()
			t := &tallies[i]
			// Clients are staggered evenly inside one interval.
			offset := interval * time.Duration(i) / time.Duration(len(clients))
			for k := 0; ; k++ {
				due := offset + interval*time.Duration(k)
				if due >= d {
					return
				}
				if wait := due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				// next may publish a purge first: that is generator work,
				// so it counts as lateness, and the op is still timed from
				// its due time.
				o := c.next(t)
				sent := time.Since(start)
				took := c.get(o, t)
				lats[i] = append(lats[i], sent-due+took)
				lates[i] = append(lates[i], sent-due)
			}
		}(i, c)
	}
	wg.Wait()
	for i := range clients {
		total.add(tallies[i])
		lat = append(lat, lats[i]...)
		late = append(late, lates[i]...)
	}
	slices.Sort(lat)
	slices.Sort(late)
	return total, lat, late
}
