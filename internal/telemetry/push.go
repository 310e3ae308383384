package telemetry

import (
	"fmt"
	"sync"
	"time"

	"apecache/internal/httplite"
	"apecache/internal/transport"
	"apecache/internal/vclock"
)

// DefaultSnapshotPath is the controller route snapshots are POSTed to.
const DefaultSnapshotPath = "/snapshot"

// DefaultSnapshotInterval is the push cadence when PushConfig leaves it
// zero.
const DefaultSnapshotInterval = 10 * time.Second

// DefaultSnapshotSpans bounds the spans included per snapshot.
const DefaultSnapshotSpans = 64

// PushConfig wires a Pusher to its bundle and the control plane.
type PushConfig struct {
	Env      vclock.Env     // clock and task spawner (virtual under simnet)
	Tel      *Telemetry     // bundle to snapshot
	Node     string         // node identity stamped on every snapshot
	Host     transport.Host // local host to dial from
	Target   transport.Addr // control plane snapshot endpoint
	Path     string         // POST path; DefaultSnapshotPath when empty
	Interval time.Duration  // push cadence; DefaultSnapshotInterval when zero
}

// Pusher periodically POSTs the bundle's telemetry snapshot to the
// control plane. The loop runs on the env's clock, so under simnet
// pushes land at deterministic virtual times; under realnet it is an
// ordinary background goroutine. Push failures are counted, not fatal —
// the fleet store tolerates missing snapshots (that is what the
// staleness health signal is for).
type Pusher struct {
	cfg    PushConfig
	client *httplite.Client

	pushes   *Counter
	pushErrs *Counter

	tasks *vclock.Group // the push loop

	mu  sync.Mutex
	seq uint64
}

// NewPusher builds a pusher; call Start to begin the periodic loop, or
// Push for a one-shot export. Env, Tel, Node, Host, and Target are
// required.
func NewPusher(cfg PushConfig) (*Pusher, error) {
	if cfg.Env == nil || cfg.Tel == nil || cfg.Host == nil || cfg.Node == "" || cfg.Target.IsZero() {
		return nil, fmt.Errorf("telemetry: pusher needs Env, Tel, Node, Host, and Target")
	}
	if cfg.Path == "" {
		cfg.Path = DefaultSnapshotPath
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultSnapshotInterval
	}
	return &Pusher{
		cfg:      cfg,
		client:   httplite.NewClient(cfg.Host),
		tasks:    vclock.NewGroup(cfg.Env),
		pushes:   cfg.Tel.Metrics.Counter("telemetry_snapshot_pushes_total", "fleet snapshots pushed"),
		pushErrs: cfg.Tel.Metrics.Counter("telemetry_snapshot_push_errors_total", "fleet snapshot pushes failed"),
	}, nil
}

// Start launches the periodic push loop.
func (p *Pusher) Start() {
	p.tasks.Every("telemetry.pusher."+p.cfg.Node, p.cfg.Interval, func() {
		p.Push() //nolint:errcheck // failures are counted in pushErrs
	})
}

// Stop ends the push loop and waits for it.
func (p *Pusher) Stop() { p.tasks.Stop() }

// Push builds one snapshot and POSTs it to the controller.
func (p *Pusher) Push() error {
	p.mu.Lock()
	p.seq++
	seq := p.seq
	p.mu.Unlock()
	snap := p.cfg.Tel.BuildSnapshot(p.cfg.Node, seq, DefaultSnapshotSpans)
	body, err := EncodeSnapshot(snap)
	if err != nil {
		p.pushErrs.Inc()
		return err
	}
	req := httplite.NewRequest("POST", p.cfg.Target.Host, p.cfg.Path)
	req.Body = body
	req.Set("Content-Type", "application/json")
	resp, err := p.client.Do(p.cfg.Target, req)
	if err != nil {
		p.pushErrs.Inc()
		return err
	}
	if resp.Status != 200 {
		p.pushErrs.Inc()
		return fmt.Errorf("telemetry: snapshot push to %s: status %d", p.cfg.Target, resp.Status)
	}
	p.pushes.Inc()
	return nil
}
