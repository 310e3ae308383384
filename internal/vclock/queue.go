package vclock

import "time"

// Queue is an unbounded FIFO queue whose Pop blocks under the simulation
// scheduler. It is the only legal way for tasks running under a Sim to wait
// for data produced by other tasks (bare channels would hide the blocked
// task from the scheduler and stall virtual time).
//
// A Queue belongs to exactly one Sim and must only be used from tasks of
// that Sim; the single-floor execution model makes internal locking
// unnecessary.
type Queue[T any] struct {
	sim     *Sim
	name    string
	buf     []T
	waiters []*qwaiter[T]
	closed  bool
}

type qwaiter[T any] struct {
	w    *waiter
	item T
	ok   bool // item delivered (as opposed to timeout/close wake)
}

// NewQueue creates a queue registered with the simulation so that
// Sim.Shutdown closes it. The name appears in deadlock diagnostics.
func NewQueue[T any](sim *Sim, name string) *Queue[T] {
	q := &Queue[T]{sim: sim, name: name}
	if !sim.registerCloser(q.Close) {
		q.closed = true
	}
	return q
}

// Push appends v and wakes the oldest live waiter, if any. Pushing to a
// closed queue silently drops v (the consumer is gone by definition).
func (q *Queue[T]) Push(v T) {
	q.sim.mu.Lock()
	defer q.sim.mu.Unlock()
	if q.closed {
		return
	}
	for len(q.waiters) > 0 {
		qw := q.waiters[0]
		q.waiters = q.waiters[1:]
		if qw.w.fired {
			continue // already woken by its deadline timer
		}
		qw.item = v
		qw.ok = true
		q.sim.wakeLocked(qw.w, false)
		q.sim.kickLocked()
		return
	}
	q.buf = append(q.buf, v)
}

// Pop blocks until an item is available. It returns ErrClosed once the
// queue is closed and drained.
func (q *Queue[T]) Pop() (T, error) { return q.pop(-1) }

// PopWait blocks until an item is available or the virtual deadline d
// elapses, returning ErrTimeout in the latter case. d <= 0 polls without
// blocking.
func (q *Queue[T]) PopWait(d time.Duration) (T, error) { return q.pop(d) }

// Len reports the number of buffered items.
func (q *Queue[T]) Len() int {
	q.sim.mu.Lock()
	defer q.sim.mu.Unlock()
	return len(q.buf)
}

// Close marks the queue closed and wakes all waiters with ErrClosed.
// Buffered items are discarded. Close is idempotent.
func (q *Queue[T]) Close() {
	q.sim.mu.Lock()
	defer q.sim.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	q.buf = nil
	for _, qw := range q.waiters {
		q.sim.wakeLocked(qw.w, false)
	}
	q.waiters = nil
	q.sim.kickLocked()
}

func (q *Queue[T]) pop(d time.Duration) (T, error) {
	var zero T
	q.sim.mu.Lock()
	for {
		if len(q.buf) > 0 {
			v := q.buf[0]
			q.buf = q.buf[1:]
			q.sim.mu.Unlock()
			return v, nil
		}
		if q.closed {
			q.sim.mu.Unlock()
			return zero, ErrClosed
		}
		if d == 0 {
			q.sim.mu.Unlock()
			return zero, ErrTimeout
		}
		qw := &qwaiter[T]{w: &waiter{ch: make(chan struct{}), site: "queue:" + q.name}}
		q.waiters = append(q.waiters, qw)
		if d > 0 {
			q.sim.addTimerLocked(q.sim.now.Add(d), qw.w)
		}
		q.sim.parkLocked(qw.w) // releases the lock
		if qw.ok {
			return qw.item, nil
		}
		q.sim.mu.Lock()
		if q.closed {
			q.sim.mu.Unlock()
			return zero, ErrClosed
		}
		q.waiters = remove(q.waiters, qw)
		if qw.w.timeout {
			q.sim.mu.Unlock()
			return zero, ErrTimeout
		}
		// Spurious wake (e.g. Shutdown fired our timer before Close ran);
		// loop and re-examine state.
	}
}
