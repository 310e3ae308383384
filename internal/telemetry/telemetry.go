package telemetry

import (
	"time"

	"apecache/internal/vclock"
)

// Telemetry bundles the two observability channels one daemon (or one
// simnet testbed) carries: the metrics registry and the span tracer.
// Components accept a *Telemetry and register their
// instruments against Metrics at construction time.
//
// Telemetry never sleeps and never spawns tasks, so wiring it into a
// simnet experiment cannot perturb virtual time — experiment outputs
// stay bit-identical with telemetry on or off.
type Telemetry struct {
	Metrics *Registry
	Tracer  *Tracer

	clock vclock.Clock
}

// New builds a telemetry bundle reading timestamps from clock (wall
// time when clock is nil, e.g. in unit tests or benchmarks).
func New(clock vclock.Clock) *Telemetry {
	return &Telemetry{
		Metrics: NewRegistry(),
		Tracer:  NewTracer(0),
		clock:   clock,
	}
}

// Now returns the current time on the bundle's clock. Safe on a nil
// receiver (falls back to wall time).
func (t *Telemetry) Now() time.Time {
	if t == nil || t.clock == nil {
		return time.Now()
	}
	return t.clock.Now()
}

// Span records one finished span for the given trace; a zero trace ID
// is a no-op. start/d must come from the same clock as the bundle.
func (t *Telemetry) Span(trace TraceID, name, node string, start time.Time, d time.Duration, detail string) {
	if t == nil || trace == 0 {
		return
	}
	t.Tracer.Record(Span{Trace: trace, Name: name, Node: node, Start: start, Duration: d, Detail: detail})
}
