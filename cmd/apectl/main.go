// Command apectl inspects and controls a running APE-CACHE deployment:
// the default mode fetches an AP's /status endpoint and renders the cache
// occupancy and runtime counters; the purge subcommand publishes an
// invalidation on the coherence bus hosted by edged; metrics and trace
// read the telemetry endpoints any daemon exposes.
//
// Usage:
//
//	apectl -ap 127.0.0.1:18080                  # human-readable summary
//	apectl -ap 127.0.0.1:18080 -raw             # raw JSON (-json is an alias)
//	apectl explain -ap 127.0.0.1:18080 http://api.demo.example/obj0
//	                                            # why is the object (not) cached — needs aped -decision-log
//	apectl metrics -addr 127.0.0.1:18080        # metric table (-raw: Prometheus text, -json: JSON object)
//	apectl metrics -addr 127.0.0.1:18080 -grep apcache_
//	apectl trace -addr 127.0.0.1:18080          # list traces in the span ring
//	apectl trace -addr 127.0.0.1:18080 3fb1c2d4e5f60708   # spans of one trace
//	apectl fleet -addr 127.0.0.1:9090           # controller fleet view: health, latency, alerts
//	apectl alerts -addr 127.0.0.1:9090          # SLO alert states and transition history
//	apectl peers -addr 127.0.0.1:9090           # mesh directory: published content summaries
//	apectl bus -hub 127.0.0.1:8080              # coherence hub counters: publications, relays, queue depth, drops
//	apectl purge -hub 127.0.0.1:8080 \
//	       -url http://api.demo.example/obj0 -version 1   # push a purge
//	apectl purge -hub 127.0.0.1:8080 \
//	       -url http://api.demo.example/obj0 -version 2 -gone
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	neturl "net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"apecache"
	"apecache/internal/apcache"
	"apecache/internal/coherence"
	"apecache/internal/coopmesh"
	"apecache/internal/httplite"
	"apecache/internal/telemetry"
	"apecache/internal/transport"
	"apecache/internal/wicache"
)

func main() {
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "purge":
		err = runPurge(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "explain":
		err = runExplain(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "metrics":
		err = runMetrics(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "trace":
		err = runTrace(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "fleet":
		err = runFleet(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "alerts":
		err = runAlerts(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "peers":
		err = runPeers(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "bus":
		err = runBus(os.Args[2:])
	default:
		ap := flag.String("ap", "127.0.0.1:18080", "AP HTTP endpoint host:port")
		raw := flag.Bool("raw", false, "print the raw JSON status")
		jsonOut := flag.Bool("json", false, "print the raw JSON status (alias of -raw)")
		flag.Parse()
		err = runStatus(*ap, *raw || *jsonOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "apectl:", err)
		os.Exit(1)
	}
}

// fetch GETs a path from a daemon's HTTP endpoint.
func fetch(addrStr, path string) ([]byte, error) {
	addr, err := transport.ParseAddr(addrStr)
	if err != nil {
		return nil, fmt.Errorf("bad address: %w", err)
	}
	client := httplite.NewClient(apecache.NewRealHost(""))
	resp, err := client.Get(addr, addr.Host, path)
	if err != nil {
		return nil, err
	}
	if resp.Status != 200 {
		return nil, fmt.Errorf("%s returned %d: %s", path, resp.Status, strings.TrimSpace(string(resp.Body)))
	}
	return resp.Body, nil
}

// runMetrics fetches /metrics and renders the samples as an aligned
// name/value table (or the raw Prometheus text with -raw).
func runMetrics(args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:18080", "daemon HTTP endpoint host:port")
	raw := fs.Bool("raw", false, "print the raw Prometheus exposition text")
	jsonOut := fs.Bool("json", false, "print the parsed samples as one JSON object")
	grep := fs.String("grep", "", "only show metrics whose name contains this substring")
	if err := fs.Parse(args); err != nil {
		return err
	}
	body, err := fetch(*addr, "/metrics")
	if err != nil {
		return err
	}
	if *raw {
		fmt.Print(string(body))
		return nil
	}
	type sample struct{ name, value string }
	var samples []sample
	width := 0
	for _, line := range strings.Split(string(body), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		s := sample{name: line[:i], value: line[i+1:]}
		if *grep != "" && !strings.Contains(s.name, *grep) {
			continue
		}
		if len(s.name) > width {
			width = len(s.name)
		}
		samples = append(samples, s)
	}
	if *jsonOut {
		obj := make(map[string]float64, len(samples))
		for _, s := range samples {
			v, err := strconv.ParseFloat(s.value, 64)
			if err != nil {
				continue
			}
			obj[s.name] = v
		}
		out, err := json.MarshalIndent(obj, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		return nil
	}
	for _, s := range samples {
		fmt.Printf("%-*s  %s\n", width, s.name, s.value)
	}
	return nil
}

// runTrace lists the traces in a daemon's span ring, or renders the
// spans of one trace as a timeline.
func runTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:18080", "daemon HTTP endpoint host:port")
	raw := fs.Bool("raw", false, "print the raw JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		body, err := fetch(*addr, "/trace")
		if err != nil {
			return err
		}
		if *raw {
			fmt.Print(string(body))
			return nil
		}
		var traces []telemetry.TraceSummary
		if err := json.Unmarshal(body, &traces); err != nil {
			return fmt.Errorf("decode trace index: %w", err)
		}
		if len(traces) == 0 {
			fmt.Println("no traces recorded")
			return nil
		}
		fmt.Printf("%-16s  %s\n", "TRACE", "SPANS")
		for _, tr := range traces {
			fmt.Printf("%-16s  %d\n", tr.Trace, tr.Spans)
		}
		return nil
	}
	body, err := fetch(*addr, "/trace?id="+fs.Arg(0))
	if err != nil {
		return err
	}
	if *raw {
		fmt.Print(string(body))
		return nil
	}
	var spans []telemetry.Span
	if err := json.Unmarshal(body, &spans); err != nil {
		return fmt.Errorf("decode spans: %w", err)
	}
	if len(spans) == 0 {
		fmt.Println("no spans")
		return nil
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	base := spans[0].Start
	fmt.Printf("trace %s — %d spans\n", spans[0].TraceHex, len(spans))
	fmt.Printf("%-10s  %-12s  %-14s  %-18s  %s\n", "OFFSET", "DURATION", "SPAN", "NODE", "DETAIL")
	for _, s := range spans {
		fmt.Printf("%-10s  %-12s  %-14s  %-18s  %s\n",
			"+"+s.Start.Sub(base).String(), s.Duration.String(), s.Name, s.Node, s.Detail)
	}
	return nil
}

// runFleet fetches the controller's /fleet view and renders per-AP
// health, fleet-merged latency distributions with exemplar trace IDs,
// and the alert summary.
func runFleet(args []string) error {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9090", "controller HTTP endpoint host:port")
	raw := fs.Bool("raw", false, "print the raw JSON")
	jsonOut := fs.Bool("json", false, "print the raw JSON (alias of -raw)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	body, err := fetch(*addr, "/fleet")
	if err != nil {
		return err
	}
	if *raw || *jsonOut {
		fmt.Print(string(body))
		return nil
	}
	var v wicache.FleetView
	if err := json.Unmarshal(body, &v); err != nil {
		return fmt.Errorf("decode fleet view: %w", err)
	}
	var firing int
	for _, a := range v.Alerts {
		if a.State == "firing" {
			firing++
		}
	}
	fmt.Printf("fleet @ %s — %d nodes, %d alerts firing\n", v.Now.Format(time.RFC3339), len(v.APs), firing)
	if len(v.APs) > 0 {
		fmt.Printf("%-18s  %5s  %-8s  %6s  %9s  %9s  %6s  %5s\n",
			"NODE", "SCORE", "STATUS", "HIT%", "STALE/MIN", "DELEGFAIL", "AGE(s)", "SEQ")
		for _, h := range v.APs {
			fmt.Printf("%-18s  %5.0f  %-8s  %6.1f  %9.1f  %9.3f  %6.1f  %5d\n",
				h.AP, h.Score, h.Status, h.HitRatio*100, h.StaleServesPerMin, h.DelegFailRatio, h.SnapshotAgeSec, h.Seq)
		}
	}
	if len(v.Latency) > 0 {
		fmt.Printf("\n%-40s  %8s  %9s  %9s  %9s\n", "LATENCY (fleet-merged)", "COUNT", "MEAN(ms)", "P50(ms)", "P99(ms)")
		for _, l := range v.Latency {
			fmt.Printf("%-40s  %8d  %9.3f  %9.3f  %9.3f\n", l.Metric, l.Count, l.MeanMs, l.P50Ms, l.P99Ms)
			for _, ex := range l.Exemplars {
				fmt.Printf("    exemplar %s  %-14s  %-18s  %.1fms\n", ex.Trace, ex.Span, ex.Node, ex.Seconds*1e3)
			}
		}
	}
	if len(v.MissCauses) > 0 {
		fmt.Printf("\n%-18s  %10s\n", "MISS CAUSE", "MISSES")
		for _, c := range v.MissCauses {
			fmt.Printf("%-18s  %10.0f\n", c.Cause, c.Misses)
		}
	}
	if len(v.Alerts) > 0 {
		fmt.Printf("\n%-18s  %-18s  %-7s  %6s  %6s\n", "SLO", "SCOPE", "STATE", "SHORT", "LONG")
		for _, a := range v.Alerts {
			fmt.Printf("%-18s  %-18s  %-7s  %6.2f  %6.2f\n", a.SLO, a.Scope, a.State, a.ShortBurn, a.LongBurn)
		}
	}
	return nil
}

// runAlerts fetches /alerts and renders the current states plus the
// retained fire/resolve history.
func runAlerts(args []string) error {
	fs := flag.NewFlagSet("alerts", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9090", "controller HTTP endpoint host:port")
	raw := fs.Bool("raw", false, "print the raw JSON")
	firingOnly := fs.Bool("firing", false, "only show alerts currently firing")
	if err := fs.Parse(args); err != nil {
		return err
	}
	body, err := fetch(*addr, "/alerts")
	if err != nil {
		return err
	}
	if *raw {
		fmt.Print(string(body))
		return nil
	}
	var payload wicache.AlertsPayload
	if err := json.Unmarshal(body, &payload); err != nil {
		return fmt.Errorf("decode alerts: %w", err)
	}
	shown := 0
	fmt.Printf("%-18s  %-18s  %-7s  %6s  %6s  %s\n", "SLO", "SCOPE", "STATE", "SHORT", "LONG", "SINCE")
	for _, a := range payload.Alerts {
		if *firingOnly && a.State != "firing" {
			continue
		}
		shown++
		fmt.Printf("%-18s  %-18s  %-7s  %6.2f  %6.2f  %s\n",
			a.SLO, a.Scope, a.State, a.ShortBurn, a.LongBurn, a.Since.Format(time.RFC3339))
	}
	if shown == 0 {
		fmt.Println("(no alerts)")
	}
	if len(payload.History) > 0 && !*firingOnly {
		fmt.Println("\nhistory:")
		for _, ev := range payload.History {
			fmt.Printf("%s  %-7s  %-18s  %-18s  short %.2f long %.2f\n",
				ev.Time.Format(time.RFC3339), ev.Event, ev.SLO, ev.Scope, ev.ShortBurn, ev.LongBurn)
		}
	}
	return nil
}

// runPeers fetches the mesh directory's /mesh/peers listing and renders
// each AP's published content summary: what it offers the mesh and how
// stale that picture is.
func runPeers(args []string) error {
	fs := flag.NewFlagSet("peers", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9090", "controller HTTP endpoint host:port")
	raw := fs.Bool("raw", false, "print the raw JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	body, err := fetch(*addr, "/mesh/peers")
	if err != nil {
		return err
	}
	if *raw {
		fmt.Print(string(body))
		return nil
	}
	var peers []coopmesh.PeerInfo
	if err := json.Unmarshal(body, &peers); err != nil {
		return fmt.Errorf("decode peers: %w", err)
	}
	if len(peers) == 0 {
		fmt.Println("no published summaries (mesh empty or APs not started with -mesh)")
		return nil
	}
	fmt.Printf("%-18s  %-21s  %7s  %7s  %5s  %3s  %7s\n",
		"NODE", "ADDR", "ENTRIES", "DOMAINS", "SEQ", "GEN", "AGE(s)")
	for _, p := range peers {
		fmt.Printf("%-18s  %-21s  %7d  %7d  %5d  %3d  %7.1f\n",
			p.Node, p.Addr,
			p.Entries, p.Domains, p.Seq, p.Generation, p.AgeSec)
	}
	return nil
}

// runBus fetches the coherence hub's stats route and renders the bus
// counters: publications accepted, per-subscriber relays, and — when the
// sharded dispatcher is enabled — queue depth, wire batches, drops and
// evictions.
func runBus(args []string) error {
	fs := flag.NewFlagSet("bus", flag.ExitOnError)
	hub := fs.String("hub", "127.0.0.1:8080", "coherence hub (edged edge endpoint) host:port")
	raw := fs.Bool("raw", false, "print the raw JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	body, err := fetch(*hub, coherence.PathStats)
	if err != nil {
		return err
	}
	if *raw {
		fmt.Print(string(body))
		return nil
	}
	var st coherence.HubStats
	if err := json.Unmarshal(body, &st); err != nil {
		return fmt.Errorf("decode bus stats: %w", err)
	}
	fmt.Printf("subscribers   %d\n", st.Subscribers)
	fmt.Printf("published     %d\n", st.Published)
	fmt.Printf("relayed       %d\n", st.Relayed)
	fmt.Printf("evicted       %d\n", st.Evicted)
	if d := st.Dispatch; d != nil {
		fmt.Printf("fan-out       sharded (%d shards, %d workers)\n", d.Shards, d.Workers)
		fmt.Printf("queued        %d\n", d.Queued)
		fmt.Printf("wire batches  %d\n", d.Batches)
		fmt.Printf("delivered     %d\n", d.Delivered)
		fmt.Printf("dropped       %d\n", d.Dropped)
	} else {
		fmt.Printf("fan-out       legacy (one delivery task per subscriber)\n")
	}
	return nil
}

// runExplain asks an AP's /explain endpoint why a URL is (or is not)
// cached: the decision history the ledger retains, the live PACM
// utility standing when resident, and the AP-wide miss-cause
// breakdown. The AP must run with the decision ledger on
// (aped -decision-log); without it the endpoint is not mounted.
func runExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	ap := fs.String("ap", "127.0.0.1:18080", "AP HTTP endpoint host:port")
	jsonOut := fs.Bool("json", false, "print the raw JSON report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("explain: exactly one URL argument required")
	}
	body, err := fetch(*ap, "/explain?u="+neturl.QueryEscape(fs.Arg(0)))
	if err != nil {
		return fmt.Errorf("%w (is the AP running with -decision-log?)", err)
	}
	if *jsonOut {
		fmt.Println(string(body))
		return nil
	}
	var rep apcache.ExplainReport
	if err := json.Unmarshal(body, &rep); err != nil {
		return fmt.Errorf("decode explain report: %w", err)
	}
	state := "not resident"
	switch {
	case rep.Resident && rep.Stale:
		state = "resident (stale)"
	case rep.Resident:
		state = "resident"
	case rep.Blocked:
		state = "block-listed (oversized)"
	case rep.Negative:
		state = "negative-cached (gone at origin)"
	}
	fmt.Printf("%s\n", rep.URL)
	fmt.Printf("flag:   %s — %s\n", rep.Flag, state)
	if rep.MissCause != "" {
		fmt.Printf("a miss now would be attributed to: %s\n", rep.MissCause)
	}
	if u := rep.Utility; u != nil {
		fmt.Printf("PACM:   U = R·e·l·p = %.3f·%.1fmin·%.1fms·p%d = %.1f (density %.4f/byte)\n",
			u.Rate, u.RemainMin, u.LatencyMS, u.Priority, u.Utility, u.Density)
	}
	if len(rep.Events) == 0 {
		fmt.Println("no retained decisions (never seen, or history aged out of the ring)")
	} else {
		fmt.Printf("\n%-5s  %-24s  %-14s  %8s  %4s  %9s  %7s\n",
			"SEQ", "TIME", "DECISION", "SIZE", "VER", "UTILITY", "REMAIN")
		for _, e := range rep.Events {
			op := string(e.Op)
			if e.Gone {
				op += " (gone)"
			}
			fmt.Printf("%-5d  %-24s  %-14s  %8d  %4d  %9.1f  %6.1fm\n",
				e.Seq, e.Time.Format(time.RFC3339), op, e.Size, e.Version, e.Utility, e.RemainMin)
		}
	}
	if len(rep.MissCauses) > 0 {
		causes := make([]string, 0, len(rep.MissCauses))
		for c := range rep.MissCauses {
			causes = append(causes, c)
		}
		sort.Strings(causes)
		fmt.Printf("\nAP-wide miss attribution (%d total):\n", rep.TotalMisses)
		for _, c := range causes {
			fmt.Printf("  %-18s  %d\n", c, rep.MissCauses[c])
		}
	}
	return nil
}

// runPurge publishes one invalidation to the coherence hub.
func runPurge(args []string) error {
	fs := flag.NewFlagSet("purge", flag.ExitOnError)
	hub := fs.String("hub", "127.0.0.1:8080", "coherence hub (edged edge endpoint) host:port")
	url := fs.String("url", "", "object URL to purge")
	version := fs.Int64("version", 1, "origin version the purge carries; copies with an older version are dropped")
	gone := fs.Bool("gone", false, "the object no longer exists at the origin (drives negative caching)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *url == "" {
		return fmt.Errorf("purge: -url is required")
	}
	if *version < 1 {
		return fmt.Errorf("purge: -version must be >= 1")
	}
	hubAddr, err := transport.ParseAddr(*hub)
	if err != nil {
		return fmt.Errorf("bad -hub: %w", err)
	}
	msg := coherence.Msg{URL: *url, Version: *version, Gone: *gone}
	client := httplite.NewClient(apecache.NewRealHost(""))
	if err := coherence.Publish(client, hubAddr, msg); err != nil {
		return err
	}
	fmt.Printf("published %s to %s\n", msg, hubAddr)
	return nil
}

// runStatus fetches an AP's /status and renders the cache occupancy
// and runtime counters.
func runStatus(apAddr string, raw bool) error {
	body, err := fetch(apAddr, "/status")
	if err != nil {
		return err
	}
	if raw {
		fmt.Println(string(body))
		return nil
	}
	var s apcache.Status
	if err := json.Unmarshal(body, &s); err != nil {
		return fmt.Errorf("decode status: %w", err)
	}

	pct := 0.0
	if s.CacheCapacity > 0 {
		pct = float64(s.CacheUsedBytes) / float64(s.CacheCapacity) * 100
	}
	fmt.Printf("AP %s — policy %s, up %ds\n", apAddr, s.Policy, s.UptimeSec)
	fmt.Printf("cache:  %d objects, %d / %d KB (%.1f%%)\n",
		s.Entries, s.CacheUsedBytes>>10, s.CacheCapacity>>10, pct)
	fmt.Printf("mgmt:   %d insertions, %d updates, %d evictions, %d expired, %d blocked\n",
		s.Insertions, s.Updates, s.Evictions, s.Expired, s.Blocked)
	fmt.Printf("runtime: %d delegations (%d KB), %d prefetches, DNS cache %d hits / %d misses\n",
		s.Delegations, s.DelegationBytes>>10, s.Prefetches, s.DNSHits, s.DNSMisses)
	fmt.Printf("mesh:   %s — %d peer hits (%d KB), %d fallbacks\n",
		s.Mesh, s.PeerHits, s.PeerBytes>>10, s.PeerFallbacks)
	fmt.Printf("coherence: %s — %d purges, %d revalidations, %d stale serves, %d stale drops\n",
		s.Coherence, s.Purges, s.Revalidations, s.StaleServes, s.StaleDrops)
	fmt.Printf("fairness: Gini %.3f over %d app(s)\n", s.Gini, len(s.PerApp))
	if len(s.PerApp) > 0 {
		fmt.Printf("%-24s  %7s  %10s  %8s  %10s  %8s\n", "APP", "ENTRIES", "KB", "RATE", "EFFICIENCY", "UTILITY")
		for _, a := range s.PerApp {
			fmt.Printf("%-24s  %7d  %10d  %8.3f  %10.1f  %8.1f\n",
				a.App, a.Entries, a.Bytes>>10, a.Rate, a.Efficiency, a.Utility)
		}
	}
	return nil
}
