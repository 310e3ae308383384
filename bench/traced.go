package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// traceResult is one workload's traced/diagnostic outcome.
type traceResult struct {
	spec     workloadSpec
	metrics  map[string]float64
	total    tally
	wall     time.Duration
	spanFile string
	// For the report: the span table and the budget lines.
	spanRows   []spanRow
	budgetRows []budgetRow
}

type spanRow struct {
	name      string
	count     int
	fast, p50 time.Duration
}

type budgetRow struct {
	path               string
	spanUS, explained  float64
	residualPct        float64
	explainedBreakdown string
}

// residualFloor: a path whose separately measured costs exceed its span by
// more than this share contradicts itself, and the run fails.
const residualFloor = -10.0

// traceRun is the diagnostic pass for one workload, on one stack:
//
//	E  three closed-loop slices like the gating rounds (runtime.*, round spread)
//	A  serial apeclient.Get, one client
//	B  serial unrolled client, tracing off
//	C  serial unrolled client with spans
//	D  open loop at the workload's fixed rate
//
// then the isolated and ladder probes on the now quiescent stack, and the
// budget: each traced path against the sum of its separately measured costs.
func traceRun(spec workloadSpec, seed int64, measure time.Duration, outDir string) (*traceResult, error) {
	began := time.Now()
	in := generate(spec, seed)
	st, clients, err := startClients(in)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", spec.name, err)
	}
	res, err := tracePhases(st, clients, seed, measure, outDir)
	if stopErr := st.stop(); err == nil && stopErr != nil {
		err = fmt.Errorf("teardown: %w", stopErr)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	res.wall = time.Since(began)
	return res, nil
}

func tracePhases(st *stack, clients []*loadClient, seed int64, measure time.Duration, outDir string) (*traceResult, error) {
	spec, cfg := st.in.spec, probeCfgFor(measure)
	res := &traceResult{spec: spec, metrics: map[string]float64{}}
	m := res.metrics
	res.total = fetchAll(clients)
	warm := closedLoop(clients, warmupFor(measure/roundsPerRun), false)
	res.total.add(warm.tally)
	before := st.readCounters(clients)
	ops := 0 // ops behind the counter ratios: everything after set-up

	// E: closed loop, as in the gating rounds.
	var (
		thr     []float64
		mem     memDelta
		eOps    int
		gorPeak int
	)
	for i := 0; i < roundsPerRun; i++ {
		ph := closedLoop(clients, measure/10, true)
		res.total.add(ph.tally)
		thr = append(thr, float64(ph.attempted-ph.failed())/ph.wall.Seconds())
		mem.add(ph.mem)
		eOps += ph.attempted
		if ph.gorPeak > gorPeak {
			gorPeak = ph.gorPeak
		}
	}
	if eOps == 0 {
		return nil, fmt.Errorf("no ops completed in the closed-loop slices")
	}
	ops += eOps
	lo, hi := minMax(thr)
	m["loadgen.round_spread_pct"] = 100 * (hi - lo) / median(thr)
	m["runtime.allocs_per_op"] = float64(mem.mallocs) / float64(eOps)
	m["runtime.alloc_bytes_per_op"] = float64(mem.bytes) / float64(eOps)
	m["runtime.gc_cycles_per_kop"] = float64(mem.gcCycles) / (float64(eOps) / 1000)
	m["runtime.gc_pause_ms"] = float64(mem.gcPause) / float64(time.Millisecond)
	m["runtime.goroutines_peak"] = float64(gorPeak)

	// A, B, C: one client, one op in flight.
	c0 := clients[0]
	d := measure * 3 / 10
	tA, latA := serial(c0, d, 0, c0.get)
	u := newUnrolled(c0)
	tB, latB := serial(c0, d, 0, u.get)
	u.log = newSpanLog((int(d.Seconds()*25000) + 4096) * len(spanNames))
	u.misses = 0
	tC, latC := serial(c0, d, 0, u.get)
	if tC.attempted > 0 {
		m["trace.spans_per_op"] = float64(len(u.log.spans)) / float64(tC.attempted)
	}
	if u.misses < 50 {
		// The workload (almost) never misses: sample the miss path anyway.
		u.forceMiss = true
		tF, _ := serial(c0, 0, cfg.ladderN/5, u.get)
		tC.add(tF)
	}
	for _, t := range []tally{tA, tB, tC} {
		res.total.add(t)
		ops += t.attempted
	}
	if len(latA) == 0 || len(latB) == 0 || len(latC) == 0 {
		return nil, fmt.Errorf("a serial phase completed no ops")
	}
	fastA, fastB, fastC := fastModeUS(latA), fastModeUS(latB), fastModeUS(latC)
	m["apeclient.get_serial_us"] = fastA
	m["apeclient.self_us"] = fastA - fastB
	m["trace.overhead_pct"] = 100 * (fastC - fastB) / fastB

	// D: open loop.
	tD, latD, late := openLoop(clients, spec.openLoopRate, measure/2)
	res.total.add(tD)
	ops += tD.attempted
	m["loadgen.openloop_p50_us"] = us(quantile(latD, 0.5))
	m["loadgen.openloop_p99_us"] = us(quantile(latD, 0.99))
	m["loadgen.late_p99_us"] = us(quantile(late, 0.99))

	st.drainPurges(res.total.purges)
	after := st.readCounters(clients)
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	m["apcache.dummy_ip_ratio"] = ratio(after.dummyIP-before.dummyIP, after.dnsCache-before.dnsCache)
	m["apcache.delegations_per_op"] = ratio(float64(after.delegations-before.delegations), float64(ops))
	m["apcache.backhaul_bytes_per_op"] = ratio(float64(after.delegationBytes-before.delegationBytes), float64(ops))
	m["apcache.revalidations_per_purge"] = ratio(after.revalidations-before.revalidations, after.purges-before.purges)
	m["coherence.relayed_per_publish"] = ratio(float64(after.relayed-before.relayed), float64(after.published-before.published))
	m["cachepolicy.evictions_per_put"] = ratio(float64(after.store.Evictions-before.store.Evictions), float64(after.puts()-before.puts()))
	m["loadgen.failed_ratio"] = ratio(float64(res.total.failed()), float64(res.total.attempted))

	t := res.total
	if r := m["loadgen.failed_ratio"]; r > maxFailedRatio {
		return nil, fmt.Errorf("check failed: failed_ratio %.5f > %.5f (%d errors, %d wrong bodies, %d stale; first error: %v)",
			r, maxFailedRatio, t.errs, t.wrong, t.stale, t.firstErr)
	}
	if used, capacity := st.ap.Store().Used(), st.ap.Store().Capacity(); used > capacity {
		return nil, fmt.Errorf("check failed: store holds %d bytes, capacity %d", used, capacity)
	}
	if spec.purgeEvery > 0 && cfg.full && m["apcache.revalidations_per_purge"] <= 0 {
		return nil, fmt.Errorf("check failed: %d purges applied, none revalidated", int(after.purges-before.purges))
	}

	// Probes, on the quiescent stack.
	p, err := newProber(st, cfg)
	if err == nil {
		err = p.run()
	}
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	for k, v := range p.m {
		m[k] = v
	}
	m["runtime.peak_rss_mb"] = peakRSSMB()

	// Budget: what each traced path leaves unexplained.
	byName, rootSelf := u.log.durations()
	for i, d := range byName {
		res.spanRows = append(res.spanRows, spanRow{spanNames[i], len(d), fastMode(d), quantile(d, 0.5)})
	}
	res.spanRows = append(res.spanRows, spanRow{"op (self)", len(rootSelf), fastMode(rootSelf), quantile(rootSelf, 0.5)})
	size := spec.objSize
	handleDNS := m["apcache.handle_dns_ns"] / 1000
	budget := []struct {
		metric, path string
		span         []time.Duration
		explained    float64
		breakdown    string
	}{
		{"budget.lookup_residual_pct", "lookup", byName[spanLookup], m["dnsd.query_rtt_us"] + handleDNS,
			fmt.Sprintf("dnsd.query_rtt %.1f (= udp_rtt %.1f + codec + dnsd.self %.1f) + handle_dns %.1f",
				m["dnsd.query_rtt_us"], m["realnet.udp_rtt_us"], m["dnsd.self_us"], handleDNS)},
		{"budget.fetch_hit_residual_pct", "fetch-hit", byName[spanFetchHit], p.hitPathUS(size),
			fmt.Sprintf("httplite.roundtrip@%dB %.1f + store get+record %.2f",
				size, p.roundtrip[size], p.hitPathUS(size)-p.roundtrip[size])},
		{"budget.fetch_miss_residual_pct", "fetch-miss", byName[spanFetchMiss], p.missPathUS(size),
			fmt.Sprintf("httplite.roundtrip@%dB %.1f + edge_fetch %.1f + put %.1f + record",
				size, p.roundtrip[size], m["objstore.edge_fetch_us"], p.putFastUS)},
	}
	for _, b := range budget {
		if len(b.span) == 0 {
			return nil, fmt.Errorf("budget: no %s spans recorded", b.path)
		}
		spanUS := fastModeUS(b.span)
		residual := 100 * (spanUS - b.explained) / spanUS
		m[b.metric] = residual
		res.budgetRows = append(res.budgetRows, budgetRow{b.path, spanUS, b.explained, residual, b.breakdown})
		if cfg.full && residual < residualFloor {
			err = fmt.Errorf("check failed: %s = %.1f%% (span fast mode %.1f us, separately measured %.1f us): below %.0f%%",
				b.metric, residual, spanUS, b.explained, residualFloor)
		}
	}
	res.spanFile = filepath.Join(outDir, spec.name+".spans.json")
	if werr := u.log.write(res.spanFile, spec.name, seed); werr != nil {
		return nil, fmt.Errorf("span file: %w", werr)
	}
	return res, err
}

func (res *traceResult) result() *result {
	out := &result{Correct: true, Attempted: res.total.attempted, Failed: res.total.failed(),
		Metrics: map[string]metricValue{}}
	for _, d := range perLayer {
		out.Metrics[d.name] = metricValue{Value: res.metrics[d.name], Unit: d.unit}
	}
	return out
}

func (run *runner) printTrace(res *traceResult) {
	run.printf("\n%s — traced/diagnostic pass, wall %.1fs, %d ops, spans in %s\n",
		res.spec.name, res.wall.Seconds(), res.total.attempted, res.spanFile)
	for _, d := range perLayer {
		run.printf("  %-36s %14.3f %s\n", d.name, res.metrics[d.name], d.unit)
	}
	run.printf("  spans (phase C, serial unrolled client): count, fast mode, p50\n")
	for _, r := range res.spanRows {
		run.printf("    %-12s %7d x %9.1f us %9.1f us\n", r.name, r.count, us(r.fast), us(r.p50))
	}
	run.printf("  budget (span fast mode vs separately measured fast-mode costs on that path):\n")
	for _, b := range res.budgetRows {
		run.printf("    %-10s span %8.1f us  explained %8.1f us  residual %6.1f%%  [%s]\n",
			b.path, b.spanUS, b.explained, b.residualPct, b.explainedBreakdown)
	}
}

// traced is the -trace 1 mode: the diagnostic pass per workload, the
// per-layer report, the result line.
func (run *runner) traced() error {
	run.header("traced")
	results := map[string]*result{}
	for _, spec := range run.specs {
		res, err := traceRun(spec, run.seed, run.measure, run.traceOut)
		if err == nil {
			err = settleGoroutines(run.baseline)
		}
		if err != nil {
			return err
		}
		run.printTrace(res)
		results[spec.name] = res.result()
	}
	return run.emit(results)
}
