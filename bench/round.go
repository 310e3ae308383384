package main

import (
	"fmt"
	"time"

	"apecache/internal/cachepolicy"
)

// counters is what the benchmark reads from the system's own instruments,
// always at quiescence (no client running).
type counters struct {
	serveHit, serveStale, serveMiss float64
	dnsCache, dummyIP               float64
	purges, revalidations           float64
	delegations                     int
	delegationBytes                 int64
	store                           cachepolicy.StoreStats
	published, relayed              int64
	clientCache200                  int64
}

func (st *stack) readCounters(clients []*loadClient) counters {
	m := st.ap.Telemetry().Metrics.Expand()
	snap := st.ap.Snapshot()
	c := counters{
		serveHit:        m[`apcache_cache_serves_total{result="hit"}`],
		serveStale:      m[`apcache_cache_serves_total{result="stale"}`],
		serveMiss:       m[`apcache_cache_serves_total{result="miss"}`],
		dnsCache:        m[`apcache_dns_queries_total{kind="cache"}`],
		dummyIP:         m["apcache_dummy_ip_total"],
		purges:          m["apcache_purges_total"],
		revalidations:   m["apcache_revalidations_total"],
		delegations:     snap.Delegations,
		delegationBytes: snap.DelegationBytes,
		store:           st.ap.Store().Stats(),
	}
	if st.hub != nil {
		hs := st.hub.Stats()
		c.published, c.relayed = hs.Published, hs.Relayed
	}
	for _, cl := range clients {
		c.clientCache200 += cl.host.cache200.Load()
	}
	return c
}

func (c counters) puts() int { return c.store.Insertions + c.store.Updates }

// round is one fresh-stack measurement of one workload.
type round struct {
	spec    workloadSpec
	setup   time.Duration // round start -> first measured op
	wall    time.Duration // whole round including teardown
	ph      phase
	total   tally // set-up + warm-up + measured
	hits    int64 // measured ops served by /cache 200 after a Hit/Stale flag
	p99s    []time.Duration
	beyond  int // fewest samples beyond a window's p99
	metrics map[string]float64
}

// startClients builds the stack for in and one load client per device.
func startClients(in *inputs) (*stack, []*loadClient, error) {
	st, err := startStack(in)
	if err != nil {
		return nil, nil, err
	}
	clients := make([]*loadClient, numClients)
	for i := range clients {
		if clients[i], err = newLoadClient(st, i); err != nil {
			st.stop()
			return nil, nil, err
		}
	}
	return st, clients, nil
}

// warmupFor scales the unmeasured warm-up down for runs shorter than the
// gating rounds (the smoke test), never up.
func warmupFor(measure time.Duration) time.Duration {
	if w := measure * 6 / 10; w < warmupTime {
		return w
	}
	return warmupTime
}

// runRound measures spec once: set-up (inputs, servers, every object
// fetched once, warm-up), then measure of closed-loop load, then the
// output checks and teardown.
func runRound(spec workloadSpec, seed int64, measure time.Duration) (*round, error) {
	began := time.Now()
	in := generate(spec, seed)
	st, clients, err := startClients(in)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", spec.name, err)
	}
	r := &round{spec: spec}
	r.total = fetchAll(clients)
	warm := closedLoop(clients, warmupFor(measure), false)
	r.total.add(warm.tally)
	before := st.readCounters(clients)
	r.setup = time.Since(began)

	r.ph = closedLoop(clients, measure, true)
	r.total.add(r.ph.tally)
	st.drainPurges(r.total.purges)
	after := st.readCounters(clients)
	r.hits = after.clientCache200 - before.clientCache200

	checkErr := r.check(st, before, after)
	if err := st.stop(); err != nil && checkErr == nil {
		checkErr = fmt.Errorf("%s: teardown: %w", spec.name, err)
	}
	r.wall = time.Since(began)
	if checkErr != nil {
		return nil, checkErr
	}
	r.p99s, r.beyond = windowP99s(r.ph.samples, r.ph.wall)
	lat := sortedLatencies(r.ph.samples)
	ok := r.ph.attempted - r.ph.failed()
	p99 := make([]float64, len(r.p99s))
	for i, p := range r.p99s {
		p99[i] = us(p)
	}
	r.metrics = map[string]float64{
		"throughput_rps": float64(ok) / r.ph.wall.Seconds(),
		"latency_p50_us": us(quantile(lat, 0.50)),
		"latency_p99_us": median(p99),
		"cpu_us_per_op":  us(r.ph.cpu) / float64(r.ph.attempted),
		"hit_ratio":      float64(r.hits) / float64(r.ph.attempted),
		"setup_s":        r.setup.Seconds(),
	}
	return r, nil
}

// drainPurges waits (briefly) until the AP has applied every purge the
// clients published: the hub relays in the background.
func (st *stack) drainPurges(published int) {
	if st.hub == nil {
		return
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if int(st.ap.Telemetry().Metrics.Expand()["apcache_purges_total"]) >= published {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Revalidations triggered by the last purges finish in the background.
	time.Sleep(5 * time.Millisecond)
}

// check runs the output checks of one round.
func (r *round) check(st *stack, before, after counters) error {
	fail := func(format string, a ...any) error {
		return fmt.Errorf("%s: check failed: %s", r.spec.name, fmt.Sprintf(format, a...))
	}
	t := r.total
	if t.attempted == 0 || r.ph.attempted == 0 {
		return fail("no ops completed")
	}
	if ratio := float64(t.failed()) / float64(t.attempted); ratio > maxFailedRatio {
		return fail("failed_ratio %.5f > %.5f (%d errors, %d wrong bodies, %d stale beyond bound; first error: %v)",
			ratio, maxFailedRatio, t.errs, t.wrong, t.stale, t.firstErr)
	}
	if used, capacity := st.ap.Store().Used(), st.ap.Store().Capacity(); used > capacity {
		return fail("store holds %d bytes, capacity %d", used, capacity)
	}
	if served := int64(after.serveHit + after.serveStale); served != after.clientCache200 {
		return fail("AP counted %d hit+stale serves, clients saw %d /cache 200s", served, after.clientCache200)
	}
	if nonHits := int64(t.attempted) - after.clientCache200; int64(after.delegations) > nonHits {
		return fail("%d delegations for %d ops that were not hits", after.delegations, nonHits)
	}
	if r.spec.fitsCache() {
		if d := after.delegations - before.delegations; d != 0 {
			return fail("%d delegations during the measured phase of an all-hit workload", d)
		}
		if p := after.puts() - before.puts(); p != 0 {
			return fail("%d store puts during the measured phase of an all-hit workload", p)
		}
		if r.hits != int64(r.ph.attempted) {
			return fail("hit_ratio %d/%d, want exactly 1", r.hits, r.ph.attempted)
		}
	}
	if st.hub != nil {
		if int(after.purges) != t.purges || int(after.published) != t.purges {
			return fail("published %d purges, hub accepted %d, AP applied %d", t.purges, after.published, int(after.purges))
		}
	}
	return nil
}
