package vclock

import (
	"container/heap"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Sim is a discrete-event simulation scheduler with virtual time.
//
// Exactly one task runs at any instant (the task "holds the floor"); when
// the running task blocks — in Sleep, in a Queue operation, or by finishing
// — the floor passes to the next ready task, and when no task is ready the
// clock jumps to the earliest pending timer. The clock moves only while a
// Run is in progress (or during Shutdown): between Runs, tasks that are
// ready still run, but pending timers wait. This cooperative model makes
// simulated timestamps deterministic and lets user-level simulation code
// run without locks.
//
// Rules for code running under a Sim:
//   - spawn concurrency only via Go (never the go statement);
//   - block only via Sleep, Queue operations or an Event (never bare
//     channels);
//   - interact with sim state only from within tasks (enter via Run/Go).
type Sim struct {
	mu      sync.Mutex
	now     time.Time
	running bool      // a task currently holds the floor
	ready   []*waiter // tasks ready to run, FIFO
	timers  timerHeap
	seq     uint64
	tasks   int            // live tasks (running + ready + blocked)
	mains   int            // tasks started via Run that have not yet returned
	blocked map[string]int // diagnostic: blocked-site name -> count
	closed  bool
	closers []func() // registered queue closers, invoked on Shutdown
	events  []*Event // events with parked waiters, in first-park order
	groups  []*Group // every Group spawning on this simulation
	idle    *sync.Cond
	failure error // deadlock diagnostic, sticky once set
}

// waiter represents one parked task (or one not-yet-started task).
type waiter struct {
	ch      chan struct{}
	fired   bool
	timeout bool   // woken by timer expiry rather than by an explicit wake
	site    string // diagnostic label of the blocking site
}

type timer struct {
	at  time.Time
	seq uint64
	w   *waiter
}

type timerHeap []*timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)   { *h = append(*h, x.(*timer)) }
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// NewSim returns a simulation whose clock starts at start. A zero start
// defaults to 2024-01-01T00:00:00Z.
func NewSim(start time.Time) *Sim {
	if start.IsZero() {
		start = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	s := &Sim{now: start, blocked: make(map[string]int)}
	s.idle = sync.NewCond(&s.mu)
	return s
}

var _ Env = (*Sim)(nil)

// Now implements Clock.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Sleep implements Clock. Under a closed simulation it returns immediately.
func (s *Sim) Sleep(d time.Duration) {
	s.mu.Lock()
	if s.closed || d <= 0 {
		s.mu.Unlock()
		return
	}
	w := &waiter{ch: make(chan struct{}), site: "sleep"}
	s.addTimerLocked(s.now.Add(d), w)
	s.parkLocked(w)
}

// Go implements Spawner: fn becomes a new task scheduled after the
// currently ready tasks. Go may be called both from inside tasks and from
// the outside (e.g. test setup before Run).
func (s *Sim) Go(name string, fn func()) { s.spawn(name, fn, false) }

func (s *Sim) spawn(name string, fn func(), main bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tasks++
	if main {
		s.mains++
	}
	start := &waiter{ch: make(chan struct{}), site: "start:" + name}
	s.ready = append(s.ready, start)
	go func() {
		<-start.ch
		fn()
		s.mu.Lock()
		s.tasks--
		if main {
			s.mains--
		}
		if s.tasks == 0 {
			s.idle.Broadcast()
		}
		s.running = false
		s.dispatchLocked()
		s.mu.Unlock()
	}()
	if !s.running {
		s.dispatchLocked()
	}
}

// Run executes fn as a task and blocks the (non-task) caller until fn
// returns. Other tasks may still be live when Run returns, parked until
// the next Run advances the clock; call Shutdown and Wait for orderly
// teardown.
func (s *Sim) Run(name string, fn func()) {
	done := make(chan struct{})
	s.spawn(name, func() {
		defer close(done)
		fn()
	}, true)
	<-done
}

// Shutdown closes every registered queue, cancels all pending timers and
// releases every Event waiter, waking their tasks so that server loops
// observing ErrClosed can exit.
// It is safe to call from inside or outside a task, and more than once.
func (s *Sim) Shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	closers := s.closers
	s.closers = nil
	// Fire all timers now so sleepers return.
	for len(s.timers) > 0 {
		t := heap.Pop(&s.timers).(*timer)
		s.wakeLocked(t.w, true)
	}
	for len(s.events) > 0 {
		s.releaseLocked(s.events[0])
	}
	if !s.running {
		s.dispatchLocked()
	}
	s.mu.Unlock()
	for _, c := range closers {
		c()
	}
}

// Wait blocks until every task has finished. Call after Shutdown.
func (s *Sim) Wait() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.tasks > 0 {
		s.idle.Wait()
	}
}

// Err reports the sticky simulation failure (currently only deadlock
// detection), or nil if the simulation is healthy.
func (s *Sim) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failure
}

// Simulate runs fn as the main task of a fresh simulation, then shuts the
// simulation down and waits for every task to finish. It returns fn's
// error, or else the simulation's own failure (a deadlock).
func Simulate(name string, fn func(*Sim) error) error {
	s := NewSim(time.Time{})
	var err error
	s.Run(name, func() { err = fn(s) })
	s.Shutdown()
	s.Wait()
	if err != nil {
		return err
	}
	return s.Err()
}

// registerCloser records a shutdown hook (used by Queue).
func (s *Sim) registerCloser(c func()) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.closers = append(s.closers, c)
	return true
}

// kickLocked restarts dispatch if no task currently holds the floor. Any
// code path that makes a waiter ready from outside the running task (queue
// close, external push) must kick, or the woken task would never run.
func (s *Sim) kickLocked() {
	if !s.running {
		s.dispatchLocked()
	}
}

// addTimerLocked schedules w to fire at the given instant.
func (s *Sim) addTimerLocked(at time.Time, w *waiter) {
	heap.Push(&s.timers, &timer{at: at, seq: s.seq, w: w})
	s.seq++
}

// parkLocked blocks the calling task on w, releasing the floor. It unlocks
// s.mu before parking and returns with the lock released.
func (s *Sim) parkLocked(w *waiter) {
	s.blocked[w.site]++
	s.running = false
	s.dispatchLocked()
	s.mu.Unlock()
	<-w.ch
	s.mu.Lock()
	s.blocked[w.site]--
	if s.blocked[w.site] == 0 {
		delete(s.blocked, w.site)
	}
	s.mu.Unlock()
}

// wakeLocked marks w ready. Idempotent: a waiter fires at most once.
func (s *Sim) wakeLocked(w *waiter, byTimer bool) {
	if w.fired {
		return
	}
	w.fired = true
	w.timeout = byTimer
	s.ready = append(s.ready, w)
}

// dispatchLocked grants the floor to the next ready task, advancing the
// virtual clock through pending timers when no task is ready. Must be
// called with s.mu held and s.running false.
func (s *Sim) dispatchLocked() {
	for {
		if len(s.ready) > 0 {
			w := s.ready[0]
			s.ready = s.ready[1:]
			s.running = true
			close(w.ch)
			return
		}
		// Drop timers whose waiter was already woken by another event.
		for len(s.timers) > 0 && s.timers[0].w.fired {
			heap.Pop(&s.timers)
		}
		if len(s.timers) == 0 {
			if s.mains > 0 && !s.closed && s.failure == nil {
				// A Run caller is waiting on a task that — like every
				// other live task — is blocked with no pending timer.
				// Under the single-floor model no external event can
				// arrive, so this is a genuine deadlock. Record it and
				// shut the simulation down (from a fresh goroutine, as
				// Shutdown re-acquires the lock) so every blocked task
				// observes ErrClosed and Run can return; the harness
				// surfaces the failure via Err.
				s.failure = fmt.Errorf("vclock: deadlock — all tasks blocked with no pending timers: %s", s.blockedSummaryLocked())
				go s.Shutdown()
			}
			return
		}
		if s.mains == 0 && !s.closed {
			// No Run is waiting: time stands still until the next Run
			// or Shutdown, so a loop nobody stopped cannot free-run.
			return
		}
		t := heap.Pop(&s.timers).(*timer)
		if t.at.After(s.now) {
			s.now = t.at
		}
		s.wakeLocked(t.w, true)
	}
}

// blockedSummaryLocked renders the blocked-site histogram for diagnostics.
func (s *Sim) blockedSummaryLocked() string {
	sites := make([]string, 0, len(s.blocked))
	for site, n := range s.blocked {
		sites = append(sites, fmt.Sprintf("%s×%d", site, n))
	}
	sort.Strings(sites)
	return strings.Join(sites, ", ")
}
