package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"apecache/internal/dnsd"
	"apecache/internal/dnswire"
	"apecache/internal/metrics"
	"apecache/internal/simnet"
	"apecache/internal/transport"
	"apecache/internal/vclock"
)

// table1Site parameterizes one (location, site) cell of Table I with the
// link characteristics that produced the published measurements: the
// client's distance to its LDNS, the LDNS's distance to the site's CDN
// DNS, and the client's distance (latency + hops) to the assigned cache
// server. Unserved regions (Yahoo from São Paulo) resolve and fetch from
// a distant origin instead.
type table1Site struct {
	location, site string
	ldnsOneWay     time.Duration // client -> LDNS
	cdnDNSOneWay   time.Duration // LDNS -> CDN DNS
	cacheOneWay    time.Duration // client -> assigned cache server
	hops           int
	paperDNS       int // published values, for side-by-side display
	paperRTT       int
	paperHops      int
}

// table1Cells calibrates the nine measurements of Table I.
var table1Cells = []table1Site{
	{"Michigan, US", "Apple", 3200 * time.Microsecond, 5200 * time.Microsecond, 17 * time.Millisecond, 13, 18, 34, 13},
	{"Michigan, US", "Microsoft", 3200 * time.Microsecond, 5800 * time.Microsecond, 16500 * time.Microsecond, 13, 19, 33, 13},
	{"Michigan, US", "Yahoo", 3200 * time.Microsecond, 6800 * time.Microsecond, 26500 * time.Microsecond, 16, 21, 53, 16},
	{"Tokyo, Japan", "Apple", 2800 * time.Microsecond, 5600 * time.Microsecond, 11 * time.Millisecond, 7, 18, 22, 7},
	{"Tokyo, Japan", "Microsoft", 2800 * time.Microsecond, 9600 * time.Microsecond, 13500 * time.Microsecond, 10, 26, 27, 10},
	{"Tokyo, Japan", "Yahoo", 2800 * time.Microsecond, 10 * time.Millisecond, 46500 * time.Microsecond, 13, 27, 93, 13},
	{"São Paulo, Brazil", "Apple", 3600 * time.Microsecond, 5800 * time.Microsecond, 9500 * time.Microsecond, 12, 20, 19, 12},
	{"São Paulo, Brazil", "Microsoft", 3600 * time.Microsecond, 8800 * time.Microsecond, 9500 * time.Microsecond, 10, 26, 19, 10},
	// No Akamai presence for Yahoo in São Paulo: both the DNS chain and
	// the data path cross continents to the origin.
	{"São Paulo, Brazil", "Yahoo", 3600 * time.Microsecond, 109 * time.Millisecond, 78 * time.Millisecond, 15, 226, 156, 15},
}

func init() {
	register(Experiment{
		ID:    "table1",
		Title: "Performance measurement of Akamai-style edge caching (DNS resolution, RTT, hops)",
		Run:   runTable1,
	})
}

// runTable1 executes the paper's measurement tool against a simulated
// Akamai deployment: 100 DNS resolutions through the location's LDNS
// (CNAME chain to the CDN redirector, uncacheable A answers) and 100
// pings to the resolved cache server.
func runTable1(cfg RunConfig) (*Result, error) {
	const rounds = 100
	res := &Result{
		ID:     "table1",
		Title:  "Akamai-style caching performance from three locations",
		Header: []string{"Location", "Site", "DNS (ms)", "paper", "RTT (ms)", "paper", "Hops", "paper"},
		Notes: []string{
			"simulated CDN deployment calibrated per published link distances; 100 rounds per cell",
		},
	}

	for _, cell := range table1Cells {
		dnsStats, rttStats, hops, err := measureTable1Cell(cell, cfg.Seed, rounds)
		if err != nil {
			return nil, fmt.Errorf("table1 %s/%s: %w", cell.location, cell.site, err)
		}
		res.Rows = append(res.Rows, []string{
			cell.location, cell.site,
			ms(dnsStats.Mean()), fmt.Sprintf("%d", cell.paperDNS),
			ms(rttStats.Mean()), fmt.Sprintf("%d", cell.paperRTT),
			fmt.Sprintf("%d", hops), fmt.Sprintf("%d", cell.paperHops),
		})
	}
	return res, nil
}

// measureTable1Cell builds one location/site topology and measures it.
func measureTable1Cell(cell table1Site, seed int64, rounds int) (*metrics.LatencyStats, *metrics.LatencyStats, int, error) {
	var (
		dnsStats, rttStats metrics.LatencyStats
		hops               int
	)
	err := vclock.Simulate("table1", func(sim *vclock.Sim) error {
		net := simnet.New(sim, seed+int64(cell.hops))
		jitterOf := func(d time.Duration) time.Duration { return d / 8 }
		net.SetLink("client", "ldns", simnet.Path{Latency: cell.ldnsOneWay, Jitter: jitterOf(cell.ldnsOneWay), Hops: 2})
		net.SetLink("ldns", "adns", simnet.Path{Latency: cell.cdnDNSOneWay * 3 / 4, Jitter: jitterOf(cell.cdnDNSOneWay), Hops: 6})
		net.SetLink("ldns", "cdndns", simnet.Path{Latency: cell.cdnDNSOneWay, Jitter: jitterOf(cell.cdnDNSOneWay), Hops: 6})
		net.SetLink("client", "cache", simnet.Path{Latency: cell.cacheOneWay, Jitter: jitterOf(cell.cacheOneWay), Hops: cell.hops})

		book := dnsd.NewAddrBook()
		cacheIP := book.Assign("cache")
		rng := rand.New(rand.NewSource(seed + 5))

		site := "www." + canonicalSiteName(cell.site) + ".com"
		adns := dnsd.NewAuthoritative(sim)
		adns.ProcessingDelay = 300 * time.Microsecond
		adns.Add(dnswire.NewCNAME(site, 300, site+".edgekey.net"))
		cdn := dnsd.NewCDNRedirector(sim, 0) // TTL 0: load-balancing answers
		cdn.ProcessingDelay = 300 * time.Microsecond
		cdn.SetNearest("ldns", cacheIP)

		ldns := dnsd.NewResolver(sim, net.Node("ldns"), rng)
		ldns.ProcessingDelay = 400 * time.Microsecond
		ldns.Delegate("", transport.Addr{Host: "adns", Port: 53})
		ldns.Delegate("edgekey.net", transport.Addr{Host: "cdndns", Port: 53})

		for _, s := range []struct {
			node string
			h    dnsd.Handler
		}{{"adns", adns}, {"cdndns", cdn}, {"ldns", ldns}} {
			pc, err := net.Node(s.node).ListenPacket(53)
			if err != nil {
				return err
			}
			h := s.h
			sim.Go("dns."+s.node, func() { dnsd.Serve(sim, pc, h) })
		}

		for i := range rounds {
			start := sim.Now()
			q := dnswire.NewQuery(uint16(i+1), site, dnswire.TypeA)
			resp, err := dnsd.Query(net.Node("client"), transport.Addr{Host: "ldns", Port: 53}, q, 0)
			if err != nil {
				return err
			}
			if _, ok := resp.AnswerA(); !ok {
				return fmt.Errorf("no A answer for %s", site)
			}
			dnsStats.Add(sim.Now().Sub(start))
			rttStats.Add(net.Ping("client", "cache"))
		}
		hops = net.Hops("client", "cache")
		return nil
	})
	if err != nil {
		return nil, nil, 0, err
	}
	return &dnsStats, &rttStats, hops, nil
}

func canonicalSiteName(site string) string {
	switch site {
	case "Apple":
		return "apple"
	case "Microsoft":
		return "microsoft"
	default:
		return "yahoo"
	}
}
