package telemetry

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// EventLog is a bounded ring of structured key=value lines recording
// the cache's discrete decisions: evictions, purges, delegations,
// revalidations. It is the greppable counterpart to the aggregate
// metrics — "what happened to this URL" rather than "how many".
// All methods are safe on a nil receiver and for concurrent use.
type EventLog struct {
	mu    sync.Mutex
	ring  []string
	next  int
	count int
	total uint64
}

// DefaultEventCapacity is the ring size used by NewEventLog.
const DefaultEventCapacity = 1024

// NewEventLog returns a log keeping the most recent capacity lines
// (the default when capacity <= 0).
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventCapacity
	}
	return &EventLog{ring: make([]string, capacity)}
}

// Emit appends one line "t=<ts> event=<event> k=v ...". kv is
// alternating keys and values; values are formatted with %v and quoted
// when they contain spaces or quotes. ts comes from the caller so the
// log is consistent under simnet virtual time.
func (l *EventLog) Emit(ts time.Time, event string, kv ...any) {
	if l == nil {
		return
	}
	var b strings.Builder
	b.Grow(64)
	b.WriteString("t=")
	b.WriteString(ts.UTC().Format(time.RFC3339Nano))
	b.WriteString(" event=")
	b.WriteString(event)
	for i := 0; i+1 < len(kv); i += 2 {
		b.WriteByte(' ')
		fmt.Fprintf(&b, "%v", kv[i])
		b.WriteByte('=')
		writeEventValue(&b, kv[i+1])
	}
	l.mu.Lock()
	l.ring[l.next] = b.String()
	l.next = (l.next + 1) % len(l.ring)
	if l.count < len(l.ring) {
		l.count++
	}
	l.total++
	l.mu.Unlock()
}

func writeEventValue(b *strings.Builder, v any) {
	s := fmt.Sprintf("%v", v)
	if strings.ContainsAny(s, " \t\n\"=") {
		b.WriteString(strconv.Quote(s))
	} else {
		b.WriteString(s)
	}
}

// Recent returns up to n of the most recent lines, oldest first.
func (l *EventLog) Recent(n int) []string {
	if l == nil || n <= 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if n > l.count {
		n = l.count
	}
	out := make([]string, 0, n)
	for i := l.count - n; i < l.count; i++ {
		idx := (l.next - l.count + i + len(l.ring)) % len(l.ring)
		out = append(out, l.ring[idx])
	}
	return out
}

// Total returns the number of events ever emitted (including ones the
// ring has since dropped).
func (l *EventLog) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}
