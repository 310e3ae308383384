package apcache

import (
	"encoding/json"
	"time"

	"apecache/internal/cachepolicy"
	"apecache/internal/decisionlog"
	"apecache/internal/dnswire"
	"apecache/internal/httplite"
	"apecache/internal/telemetry"
)

// Ledger exposes the decision ledger (nil when Config.DecisionLog is
// off) for experiments and tests.
func (ap *AP) Ledger() *decisionlog.Ledger { return ap.ledger }

// registerMissCauses registers the attribution counters, reading the
// ledger's atomics at exposition time. Registered only when the ledger
// exists, so ledger-off APs add no metric families; as a Collect counter
// family the samples ride the snapshot wire and merge into the fleet
// view.
func registerMissCauses(tel *telemetry.Telemetry, led *decisionlog.Ledger) {
	tel.Metrics.Collect("apcache_miss_cause_total", "cache misses by attributed cause",
		telemetry.KindCounter, func(dst []telemetry.Sample) []telemetry.Sample {
			for _, c := range decisionlog.Causes {
				dst = append(dst, telemetry.Sample{
					Labels: telemetry.LabelPair("cause", string(c)),
					Value:  float64(led.CauseCount(c)),
				})
			}
			return dst
		})
}

// UtilityStanding is an object's live PACM utility decomposition:
// U = R(A_d)·e_d·l_d·p_d, plus the per-byte density PACM ranks by.
type UtilityStanding struct {
	Rate      float64 `json:"rate"`
	RemainMin float64 `json:"remain_min"`
	LatencyMS float64 `json:"latency_ms"`
	Priority  int     `json:"priority"`
	Utility   float64 `json:"utility"`
	Density   float64 `json:"density"`
}

// ExplainReport answers "why is X (not) cached": the current DNS-Cache
// flag, the live utility standing when resident, the attributed cause a
// miss would be charged to, the retained decision history, and the AP's
// full miss-cause breakdown.
type ExplainReport struct {
	URL      string `json:"url"`
	Flag     string `json:"flag"`
	Resident bool   `json:"resident"`
	Stale    bool   `json:"stale,omitempty"`
	Blocked  bool   `json:"blocked,omitempty"`
	Negative bool   `json:"negative,omitempty"`
	// MissCause is the taxonomy bucket a miss on this URL would be
	// attributed to right now (empty for a servable Cache-Hit).
	MissCause string              `json:"miss_cause,omitempty"`
	Utility   *UtilityStanding    `json:"utility,omitempty"`
	Events    []decisionlog.Event `json:"events"`
	// MissCauses and TotalMisses are the AP-wide attribution counters
	// (Σ MissCauses == TotalMisses, the accounting identity).
	MissCauses  map[string]uint64 `json:"miss_causes"`
	TotalMisses uint64            `json:"total_misses"`
}

// Explain assembles the report for a basic URL. Probing never perturbs
// the attribution counters.
func (ap *AP) Explain(basic string) ExplainReport {
	now := ap.cfg.Env.Now()
	rep := ExplainReport{
		URL:         basic,
		Flag:        ap.store.Flag(basic).String(),
		Blocked:     ap.store.Blocked(basic),
		Negative:    ap.store.NegativeCached(basic),
		Events:      ap.ledger.Explain(basic),
		MissCauses:  ap.ledger.Counts(),
		TotalMisses: ap.ledger.TotalMisses(),
	}
	if e, ok := ap.store.Peek(basic); ok {
		rep.Resident = true
		rep.Stale = e.Stale
		freq := ap.store.Freq()
		util := cachepolicy.Utility(e, now, freq)
		size := e.Size()
		density := 0.0
		if size > 0 {
			density = util / float64(size)
		}
		remain := e.Expiry.Sub(now).Minutes()
		if remain < 0 {
			remain = 0
		}
		rep.Utility = &UtilityStanding{
			Rate:      freq.Rate(e.Object.App),
			RemainMin: remain,
			LatencyMS: float64(e.FetchLatency) / float64(time.Millisecond),
			Priority:  e.Object.Priority,
			Utility:   util,
			Density:   density,
		}
	}
	if rep.Flag != dnswire.FlagCacheHit.String() && rep.Flag != dnswire.FlagStale.String() {
		rep.MissCause = string(ap.ledger.Probe(basic, now))
	}
	return rep
}

// handleExplain serves GET /explain?u=<url> (mounted only when the
// decision ledger is on).
func (ap *AP) handleExplain(req *httplite.Request) *httplite.Response {
	params := httplite.QueryParams(req.Path)
	target := params["u"]
	if target == "" {
		return httplite.NewResponse(400, []byte("missing u parameter"))
	}
	body, err := json.MarshalIndent(ap.Explain(dnswire.BasicURL(target)), "", "  ")
	if err != nil {
		return httplite.NewResponse(500, []byte(err.Error()))
	}
	resp := httplite.NewResponse(200, body)
	resp.Set("Content-Type", "application/json")
	return resp
}
