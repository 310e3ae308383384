package coopmesh

import (
	"fmt"
	"sync"
	"time"

	"apecache/internal/cachepolicy"
	"apecache/internal/httplite"
	"apecache/internal/telemetry"
	"apecache/internal/transport"
	"apecache/internal/vclock"
)

// DefaultSummaryInterval is the publish cadence when PublisherConfig
// leaves it zero. Summaries are tiny (a few hundred bytes), so they can
// run well below the 10s telemetry snapshot cadence; lower staleness
// directly raises the peer-hit rate.
const DefaultSummaryInterval = 5 * time.Second

// PublisherConfig wires a summary publisher to its store and directory.
type PublisherConfig struct {
	Env      vclock.Env         // clock and task spawner (virtual under simnet)
	Host     transport.Host     // local host to dial from
	Node     string             // identity stamped on every summary
	Addr     transport.Addr     // this AP's object-serving endpoint peers dial
	Target   transport.Addr     // mesh directory (control plane) endpoint
	Store    *cachepolicy.Store // cache to summarize
	Interval time.Duration      // publish cadence; DefaultSummaryInterval when zero
	// Telemetry, when set, receives publish counters and a staleness
	// gauge. Leave nil on APs without the mesh so the metric families of
	// mesh-off runs stay byte-identical.
	Telemetry *telemetry.Telemetry
}

// Publisher periodically builds a content summary from the AP store and
// POSTs it to the mesh directory — the same push pattern as the
// telemetry snapshot pusher, and with the same failure model: a missed
// publish is counted, not fatal, and merely leaves the directory with a
// staler picture of this AP.
type Publisher struct {
	cfg    PublisherConfig
	client *httplite.Client

	pushes   *telemetry.Counter
	pushErrs *telemetry.Counter
	tasks    *vclock.Group // the publish loop

	mu       sync.Mutex
	seq      uint64
	gen      uint64
	lastPush time.Time
}

// NewPublisher builds a publisher; call Start for the periodic loop or
// Publish for a one-shot export.
func NewPublisher(cfg PublisherConfig) (*Publisher, error) {
	if cfg.Env == nil || cfg.Host == nil || cfg.Store == nil || cfg.Node == "" || cfg.Addr.IsZero() || cfg.Target.IsZero() {
		return nil, fmt.Errorf("coopmesh: publisher needs Env, Host, Store, Node, Addr, and Target")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultSummaryInterval
	}
	p := &Publisher{cfg: cfg, client: httplite.NewClient(cfg.Host), tasks: vclock.NewGroup(cfg.Env)}
	if tel := cfg.Telemetry; tel != nil {
		p.pushes = tel.Metrics.Counter("coopmesh_summary_pushes_total", "mesh content summaries published")
		p.pushErrs = tel.Metrics.Counter("coopmesh_summary_push_errors_total", "mesh summary publications failed")
		tel.Metrics.GaugeFunc("coopmesh_summary_age_seconds", "time since this AP's last successful summary publication", func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			if p.lastPush.IsZero() {
				return 0
			}
			return cfg.Env.Now().Sub(p.lastPush).Seconds()
		})
	}
	return p, nil
}

// Start launches the periodic publish loop.
func (p *Publisher) Start() {
	p.tasks.Every("coopmesh.publisher."+p.cfg.Node, p.cfg.Interval, func() {
		p.Publish() //nolint:errcheck // failures are counted in pushErrs
	})
}

// Stop ends the publish loop and waits for it.
func (p *Publisher) Stop() { p.tasks.Stop() }

// Bump increments the summary generation. The AP's purge handler calls
// it so the next published summary is distinguishable from every summary
// built before the purge — the AP-side half of purge invalidation (the
// directory's tombstone is the controller-side half).
func (p *Publisher) Bump() {
	p.mu.Lock()
	p.gen++
	p.mu.Unlock()
}

// Generation returns the current purge generation (tests).
func (p *Publisher) Generation() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gen
}

// Publish builds one summary and POSTs it to the directory.
func (p *Publisher) Publish() error {
	p.mu.Lock()
	p.seq++
	seq, gen := p.seq, p.gen
	p.mu.Unlock()
	sum := BuildSummary(p.cfg.Node, p.cfg.Addr, p.cfg.Store, seq, gen)
	body, err := sum.Encode()
	if err != nil {
		p.pushErrs.Inc()
		return err
	}
	req := httplite.NewRequest("POST", p.cfg.Target.Host, PathSummary)
	req.Body = body
	req.Set("Content-Type", "application/json")
	resp, err := p.client.Do(p.cfg.Target, req)
	if err != nil {
		p.pushErrs.Inc()
		return err
	}
	if resp.Status != 200 {
		p.pushErrs.Inc()
		return fmt.Errorf("coopmesh: summary push to %s: status %d", p.cfg.Target, resp.Status)
	}
	p.mu.Lock()
	p.lastPush = p.cfg.Env.Now()
	p.mu.Unlock()
	p.pushes.Inc()
	return nil
}
