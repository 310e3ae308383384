package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"apecache/internal/apeclient"
	"apecache/internal/coherence"
	"apecache/internal/httplite"
)

// loadClient is one closed-loop device: it owns a host (its connections
// and its hit counter), one apeclient.Client per app, and its slice of
// the pre-generated op list.
type loadClient struct {
	id     int
	st     *stack
	host   *trackHost
	apps   []*apeclient.Client
	pub    *httplite.Client // purge publications
	ops    []int32
	purges []int32
	pos    int // ops issued so far, over all phases
}

func newLoadClient(st *stack, id int) (*loadClient, error) {
	in := st.in
	c := &loadClient{id: id, st: st, host: st.host(true), ops: in.ops[id], purges: in.purges[id]}
	c.pub = httplite.NewClient(c.host)
	for app := 0; app < in.spec.domains; app++ {
		reg := apeclient.NewRegistry(appName(app))
		for _, o := range in.objects {
			if o.app != app {
				continue
			}
			if err := reg.Register(apeclient.Cacheable{ID: o.url, Priority: o.priority, TTL: objectTTL}); err != nil {
				return nil, err
			}
		}
		c.apps = append(c.apps, apeclient.New(apeclient.Config{
			Env: st.env, Host: c.host, Registry: reg,
			APDNS: st.ap.DNSAddr(), APHTTP: st.ap.HTTPAddr(),
			Rng:     rand.New(rand.NewSource(int64(id*1000 + app + 1))),
			FlagTTL: clientFlagTTL,
		}))
	}
	return c, nil
}

// next returns the client's next object, after publishing a purge first
// when the workload asks for one at this position.
func (c *loadClient) next(tally *tally) *object {
	spec := c.st.in.spec
	if spec.purgeEvery > 0 && c.pos%spec.purgeEvery == spec.purgeEvery-1 {
		target := c.st.in.objects[c.purges[(c.pos/spec.purgeEvery)%len(c.purges)]]
		err := target.bump(func(m coherence.Msg) error { return coherence.Publish(c.pub, c.st.edgeAddr, m) })
		if err != nil {
			tally.noteErr(fmt.Errorf("publish %s: %w", target.url, err))
		} else {
			tally.purges++
		}
	}
	o := c.st.in.objects[c.ops[c.pos%len(c.ops)]]
	c.pos++
	return o
}

// get performs one verified op and returns its wall-clock latency.
func (c *loadClient) get(o *object, tally *tally) time.Duration {
	began := time.Now()
	body, err := c.apps[o.app].Get(o.url)
	lat := time.Since(began)
	tally.attempted++
	if err != nil {
		tally.noteErr(err)
		return lat
	}
	switch o.verify(body, began) {
	case bodyWrong:
		tally.wrong++
	case bodyStale:
		tally.stale++
	}
	return lat
}

// tally counts what one client did in one phase. Only that client's
// goroutine writes it.
type tally struct {
	attempted, errs, wrong, stale int
	purges                        int
	firstErr                      error
}

func (t *tally) noteErr(err error) {
	t.errs++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (t *tally) failed() int { return t.errs + t.wrong + t.stale }

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.errs += o.errs
	t.wrong += o.wrong
	t.stale += o.stale
	t.purges += o.purges
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// sample is one measured op: when it completed (since phase start) and how
// long it took.
type sample struct{ at, lat time.Duration }

// phase is the outcome of one closed-loop stretch.
type phase struct {
	tally
	wall    time.Duration
	cpu     time.Duration
	samples []sample // nil when the phase was not recorded
	mem     memDelta
	gorPeak int
}

type memDelta struct {
	mallocs, bytes uint64
	gcCycles       uint32
	gcPause        time.Duration
}

func (m *memDelta) add(o memDelta) {
	m.mallocs += o.mallocs
	m.bytes += o.bytes
	m.gcCycles += o.gcCycles
	m.gcPause += o.gcPause
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (ru_maxrss is in KiB
// on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// closedLoop drives all clients for d, each issuing its next op as soon as
// the previous one completed. With record set every op is timed into a
// preallocated buffer and process CPU, allocation and GC deltas are taken
// around the phase.
func closedLoop(clients []*loadClient, d time.Duration, record bool) phase {
	var (
		wg      sync.WaitGroup
		tallies = make([]tally, len(clients))
		samples = make([][]sample, len(clients))
		ph      phase
		before  runtime.MemStats
		stopGor = make(chan struct{})
		gorDone = make(chan struct{})
	)
	if record {
		for i := range samples {
			// Room for 25k op/s per client; append grows it if exceeded.
			samples[i] = make([]sample, 0, int(d.Seconds()*25000)+1024)
		}
		go func() {
			defer close(gorDone)
			tick := time.NewTicker(50 * time.Millisecond)
			defer tick.Stop()
			for {
				if n := runtime.NumGoroutine(); n > ph.gorPeak {
					ph.gorPeak = n
				}
				select {
				case <-tick.C:
				case <-stopGor:
					return
				}
			}
		}()
		runtime.ReadMemStats(&before)
	}
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *loadClient) {
			defer wg.Done()
			t := &tallies[i]
			for time.Now().Before(deadline) {
				o := c.next(t)
				lat := c.get(o, t)
				if record {
					samples[i] = append(samples[i], sample{at: time.Since(start), lat: lat})
				}
			}
		}(i, c)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	ph.cpu = cpuTime() - cpu0
	if record {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		close(stopGor)
		<-gorDone
		ph.mem = memDelta{
			mallocs:  after.Mallocs - before.Mallocs,
			bytes:    after.TotalAlloc - before.TotalAlloc,
			gcCycles: after.NumGC - before.NumGC,
			gcPause:  time.Duration(after.PauseTotalNs - before.PauseTotalNs),
		}
		for _, s := range samples {
			ph.samples = append(ph.samples, s...)
		}
	}
	for _, t := range tallies {
		ph.add(t)
	}
	return ph
}

// fetchAll has the clients fetch every object once, sharing the catalog
// between them, so the AP has seen (and, capacity permitting, holds) all
// of it before the workload starts.
func fetchAll(clients []*loadClient) tally {
	var (
		wg      sync.WaitGroup
		tallies = make([]tally, len(clients))
	)
	objs := clients[0].st.in.objects
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *loadClient) {
			defer wg.Done()
			for j := i; j < len(objs); j += len(clients) {
				c.get(objs[j], &tallies[i])
			}
		}(i, c)
	}
	wg.Wait()
	var total tally
	for _, t := range tallies {
		total.add(t)
	}
	return total
}

// quantile returns the q-quantile of sorted (nearest rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

func sortedLatencies(samples []sample) []time.Duration {
	out := make([]time.Duration, len(samples))
	for i, s := range samples {
		out[i] = s.lat
	}
	slices.Sort(out)
	return out
}

// windowP99s splits a phase of length wall into equal windows of about
// latencyWindow (at least two) and returns each window's p99, plus the
// smallest number of samples beyond a window's p99.
func windowP99s(samples []sample, wall time.Duration) (p99s []time.Duration, minBeyond int) {
	n := int((wall + latencyWindow/2) / latencyWindow)
	if n < 2 {
		n = 2
	}
	width := wall/time.Duration(n) + 1
	buckets := make([][]time.Duration, n)
	for _, s := range samples {
		w := int(s.at / width)
		if w >= n {
			w = n - 1
		}
		buckets[w] = append(buckets[w], s.lat)
	}
	minBeyond = -1
	for _, b := range buckets {
		if len(b) == 0 {
			continue
		}
		slices.Sort(b)
		p99s = append(p99s, quantile(b, 0.99))
		if beyond := len(b) / 100; minBeyond < 0 || beyond < minBeyond {
			minBeyond = beyond
		}
	}
	return p99s, minBeyond
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(v))
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func minMax(v []float64) (lo, hi float64) {
	if len(v) == 0 {
		return 0, 0
	}
	return slices.Min(v), slices.Max(v)
}
