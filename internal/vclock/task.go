package vclock

import (
	"sync"
	"time"
)

// scheduler is the optional interface through which an Env lends its
// scheduler to Events and Groups: *Sim implements it (as does any type
// embedding one), so their waits park on the simulation the way
// Queue.Pop does. Env is unchanged; under any other Env they fall back to
// a channel and a wall-clock timer.
type scheduler interface{ scheduler() *Sim }

func (s *Sim) scheduler() *Sim { return s }

// Event is a one-shot signal: Fire wakes every waiter, and every wait
// that starts afterwards returns at once.
type Event struct {
	sim     *Sim      // nil: channel fallback
	site    string    // label of its waits in deadlock diagnostics
	fired   bool      // under a Sim; guarded by sim.mu
	waiters []*waiter // under a Sim; guarded by sim.mu
	ch      chan struct{}
	once    sync.Once
}

// NewEvent returns an unfired event for tasks of env; the name labels its
// waits in deadlock diagnostics.
func NewEvent(env Env, name string) *Event {
	if sc, ok := env.(scheduler); ok {
		return &Event{sim: sc.scheduler(), site: "event:" + name}
	}
	return &Event{ch: make(chan struct{})}
}

// Fire wakes every waiter. Only the first call has an effect.
func (e *Event) Fire() {
	s := e.sim
	if s == nil {
		e.once.Do(func() { close(e.ch) })
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !e.fired {
		e.fired = true
		s.releaseLocked(e)
		s.kickLocked()
	}
}

// Wait blocks until the event fires.
func (e *Event) Wait() { e.wait(-1) }

// WaitTimeout blocks until the event fires or d elapses, and reports
// whether it fired; d <= 0 polls. Under a Sim the deadline is a timer
// drawn exactly as Sleep(d) draws one. Under a shut-down Sim every wait
// returns at once.
func (e *Event) WaitTimeout(d time.Duration) bool { return e.wait(max(d, 0)) }

// wait blocks until the event fires or, for d >= 0, d elapses.
func (e *Event) wait(d time.Duration) bool {
	s := e.sim
	if s == nil {
		var timeout <-chan time.Time
		if d >= 0 {
			timeout = time.After(d)
		}
		select {
		case <-e.ch:
			return true
		case <-timeout:
		}
		select {
		case <-e.ch:
			return true
		default:
			return false
		}
	}
	s.mu.Lock()
	if e.fired || s.closed || d == 0 {
		defer s.mu.Unlock()
		return e.fired
	}
	w := &waiter{ch: make(chan struct{}), site: e.site}
	if len(e.waiters) == 0 {
		s.events = append(s.events, e)
	}
	e.waiters = append(e.waiters, w)
	if d > 0 {
		s.addTimerLocked(s.now.Add(d), w)
	}
	s.parkLocked(w)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !e.fired { // woken by the deadline or by Shutdown: withdraw
		e.waiters = remove(e.waiters, w)
		if len(e.waiters) == 0 {
			s.events = remove(s.events, e)
		}
	}
	return e.fired
}

// releaseLocked wakes every waiter of e and forgets it.
func (s *Sim) releaseLocked(e *Event) {
	for _, w := range e.waiters {
		s.wakeLocked(w, false)
	}
	e.waiters = nil
	s.events = remove(s.events, e)
}

func remove[T comparable](xs []T, x T) []T {
	for i, o := range xs {
		if o == x {
			return append(xs[:i], xs[i+1:]...)
		}
	}
	return xs
}

// Group is one component's background tasks. Stop fires the group's stop
// Event — ending every Every loop at once — then waits until each task
// the group started has returned; a stopped Group starts nothing more.
// Under a Sim, call Stop and Wait from a task, never from one of the
// group's own.
type Group struct {
	env     Env
	stop    *Event
	mu      sync.Mutex
	stopped bool
	live    map[string]int // live tasks by name
	n       int            // live tasks
	idle    *Event         // fires when n drops to zero; renewed on the next Go
}

// NewGroup returns an empty group spawning through env.
func NewGroup(env Env) *Group {
	g := &Group{env: env, stop: NewEvent(env, "group.stop"), live: make(map[string]int)}
	if sc, ok := env.(scheduler); ok {
		s := sc.scheduler()
		s.mu.Lock()
		s.groups = append(s.groups, g)
		s.mu.Unlock()
	}
	return g
}

// Go runs fn as a task of the group, unless the group has stopped.
func (g *Group) Go(name string, fn func()) {
	g.mu.Lock()
	if g.stopped {
		g.mu.Unlock()
		return
	}
	if g.n == 0 {
		g.idle = NewEvent(g.env, "group.idle")
	}
	g.n++
	g.live[name]++
	g.mu.Unlock()
	g.env.Go(name, func() {
		defer g.done(name)
		fn()
	})
}

func (g *Group) done(name string) {
	g.mu.Lock()
	g.n--
	if g.live[name]--; g.live[name] == 0 {
		delete(g.live, name)
	}
	idle := g.idle
	last := g.n == 0
	g.mu.Unlock()
	if last {
		idle.Fire()
	}
}

// Every runs fn once per interval, starting one interval from now, until
// the group stops. Under a Sim its timers are drawn exactly as
// Sleep(interval) draws them. A wait that ends without time advancing (a
// shut-down Sim) ends the loop instead of letting it spin.
func (g *Group) Every(name string, interval time.Duration, fn func()) {
	g.Go(name, func() {
		for {
			before := g.env.Now()
			if g.stop.WaitTimeout(interval) || g.env.Now().Sub(before) < interval {
				return
			}
			fn()
		}
	})
}

// Wait blocks until every task of the group has returned.
func (g *Group) Wait() {
	g.mu.Lock()
	idle, busy := g.idle, g.n > 0
	g.mu.Unlock()
	if busy {
		idle.Wait()
	}
}

// Stop ends the group's Every loops, refuses new tasks and waits for the
// rest. It is idempotent.
func (g *Group) Stop() {
	g.mu.Lock()
	g.stopped = true
	g.mu.Unlock()
	g.stop.Fire()
	g.Wait()
}

// Live counts, by name, the live tasks of the simulation's Groups — with
// stopped set, only those of stopped Groups, of which a Stop that waits
// leaves none.
func (s *Sim) Live(stopped bool) map[string]int {
	s.mu.Lock()
	groups := append([]*Group(nil), s.groups...)
	s.mu.Unlock()
	out := make(map[string]int)
	for _, g := range groups {
		g.mu.Lock()
		for name, n := range g.live {
			if g.stopped || !stopped {
				out[name] += n
			}
		}
		g.mu.Unlock()
	}
	return out
}
