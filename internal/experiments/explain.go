package experiments

import (
	"fmt"

	"apecache/internal/coherence"
	"apecache/internal/decisionlog"
	"apecache/internal/testbed"
)

func init() {
	register(Experiment{
		ID:    "explain",
		Title: "Miss-cause attribution: where the decision ledger says misses come from",
		Run:   runExplain,
	})
}

// explainOutcome is one ledger-on run's attribution, plus the identity
// check inputs: the ledger's own miss total and the store's telemetry
// miss counter, observed at the same instant.
type explainOutcome struct {
	causes      map[string]uint64
	ledgerTotal uint64
	telMisses   float64
	hitRatio    float64
}

// checkIdentity asserts the accounting identity the ledger is built
// around: every classified cause sums to the ledger's miss total, which
// equals the store's own telemetry miss counter. A violation means a
// miss path exists that the ledger does not classify (or classifies
// twice) — exactly the regression this experiment exists to catch.
func (o *explainOutcome) checkIdentity(label string) error {
	var sum uint64
	for _, n := range o.causes {
		sum += n
	}
	if sum != o.ledgerTotal {
		return fmt.Errorf("%s: cause sum %d != ledger total %d", label, sum, o.ledgerTotal)
	}
	if float64(o.ledgerTotal) != o.telMisses {
		return fmt.Errorf("%s: ledger total %d != %s %.0f", label, o.ledgerTotal, identityExpr, o.telMisses)
	}
	return nil
}

// The ledger classifies a miss observation wherever one surfaces: a
// store lookup that comes up empty, an edge delegation fill, or a
// peer-mesh fill. Each site pairs with exactly one telemetry counter,
// so the attribution identity is provable from instruments alone.
const (
	storeMissKey  = `apcache_store_lookups_total{result="miss"}`
	delegationKey = `apcache_delegations_total`
	peerHitsKey   = `apcache_peer_hits_total`
)

// identityExpr names the identity in rendered notes and errors.
const identityExpr = "store lookup misses + delegations + peer hits"

// captureLedger reads the attribution state off a live testbed AP, or
// returns nil when the testbed has no APE-CACHE AP (the Edge Cache
// system's forwarder AP keeps no ledger). Must run inside the simulation,
// before shutdown.
func captureLedger(tb *testbed.Testbed) *explainOutcome {
	if tb.AP == nil || tb.AP.Ledger() == nil {
		return nil
	}
	led := tb.AP.Ledger()
	m := tb.AP.Telemetry().Metrics.Expand()
	return &explainOutcome{
		causes:      led.Counts(),
		ledgerTotal: led.TotalMisses(),
		telMisses:   m[storeMissKey] + m[delegationKey] + m[peerHitsKey],
		hitRatio:    tb.HitStats().All.Ratio(),
	}
}

// runExplain renders the miss causes of two very different workloads
// side by side: the Table-IV object-size run (capacity pressure → PACM
// evictions and admission rejections dominate; shared with table4 through
// the run memo) and the coherence sweep's SWR run (purges and
// revalidations dominate). Both runs prove the attribution identity
// before any row is rendered.
func runExplain(cfg RunConfig) (*Result, error) {
	suite, key := suiteForSize(300, cfg.Seed)
	run, err := runWorkload(testbed.SystemAPECache, suite, key, cfg.workloadDuration(), cfg.Seed, defaultCapacity)
	if err != nil {
		return nil, fmt.Errorf("explain steady: %w", err)
	}
	steady := run.Ledger
	if err := steady.checkIdentity("steady"); err != nil {
		return nil, err
	}
	swr, err := runCoherenceMode(coherence.ModeSWR, cfg)
	if err != nil {
		return nil, fmt.Errorf("explain coherence: %w", err)
	}
	coh := swr.ledger
	if err := coh.checkIdentity("coherence"); err != nil {
		return nil, err
	}

	res := &Result{
		ID:     "explain",
		Title:  "Miss-cause attribution (decision ledger on)",
		Header: []string{"Cause", "Steady (Table-IV workload)", "Coherence (SWR, mutating origin)"},
		Notes: []string{
			fmt.Sprintf("identity holds in both runs: sum(causes) == ledger total == %s", identityExpr),
			fmt.Sprintf("steady: %d misses attributed, hit ratio %s", steady.ledgerTotal, ratio(steady.hitRatio)),
			fmt.Sprintf("coherence: %d misses attributed, hit ratio %s", coh.ledgerTotal, ratio(coh.hitRatio)),
			"cold = first-ever lookup; purged = invalidated by the origin before re-lookup",
		},
	}
	for _, c := range decisionlog.Causes {
		res.Rows = append(res.Rows, []string{
			string(c),
			fmt.Sprintf("%d", steady.causes[string(c)]),
			fmt.Sprintf("%d", coh.causes[string(c)]),
		})
	}
	return res, nil
}
