package vclock

import (
	"sync/atomic"
	"testing"
	"time"
)

// eachEnv runs fn under a Sim (as the main task) and under Real. A
// wall-clock run checks only what a shared machine can promise.
func eachEnv(t *testing.T, fn func(t *testing.T, env Env, virtual bool)) {
	t.Run("sim", func(t *testing.T) {
		if err := Simulate("main", func(s *Sim) error { fn(t, s, true); return nil }); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("real", func(t *testing.T) {
		r := &Real{}
		fn(t, r, false)
		r.Wait()
	})
}

func TestEventWaitTimesOut(t *testing.T) {
	eachEnv(t, func(t *testing.T, env Env, virtual bool) {
		e := NewEvent(env, "never")
		start := env.Now()
		if e.WaitTimeout(20 * time.Millisecond) {
			t.Error("unfired event reported fired")
		}
		waited := env.Now().Sub(start)
		if waited < 20*time.Millisecond || virtual && waited != 20*time.Millisecond {
			t.Errorf("waited %v, want 20ms", waited)
		}
		if e.WaitTimeout(0) {
			t.Error("poll of an unfired event reported fired")
		}
	})
}

func TestEventFireWakesEveryWaiter(t *testing.T) {
	eachEnv(t, func(t *testing.T, env Env, virtual bool) {
		e := NewEvent(env, "go")
		waiters := NewGroup(env)
		var woke atomic.Int32
		for range 3 {
			waiters.Go("waiter", func() {
				if e.WaitTimeout(time.Hour) {
					woke.Add(1)
				}
			})
		}
		env.Sleep(5 * time.Millisecond)
		start := env.Now()
		e.Fire()
		e.Fire()
		waiters.Wait()
		if got := woke.Load(); got != 3 {
			t.Errorf("woken waiters = %d, want 3", got)
		}
		if virtual && !env.Now().Equal(start) {
			t.Errorf("waiters woke %v after Fire, want at once", env.Now().Sub(start))
		}
		if !e.WaitTimeout(time.Hour) || !e.WaitTimeout(0) {
			t.Error("wait on a fired event did not return at once")
		}
		e.Wait()
	})
}

func TestGroupStopIsIdempotentAndWakesEvery(t *testing.T) {
	eachEnv(t, func(t *testing.T, env Env, virtual bool) {
		g := NewGroup(env)
		var ticks atomic.Int32
		g.Every("tick", time.Hour, func() { ticks.Add(1) })
		env.Sleep(time.Millisecond)
		start := env.Now()
		g.Stop()
		g.Stop()
		took := env.Now().Sub(start)
		if virtual && took != 0 || took > time.Second {
			t.Errorf("Stop took %v, want it to wake the sleeping loop at once", took)
		}
		if got := ticks.Load(); got != 0 {
			t.Errorf("ticks = %d, want 0", got)
		}
		ran := false
		g.Go("late", func() { ran = true })
		g.Wait()
		if ran {
			t.Error("a stopped group started a task")
		}
	})
}

func TestEveryTicksEachInterval(t *testing.T) {
	s := NewSim(time.Time{})
	start := s.Now()
	var at []time.Duration
	s.Run("main", func() {
		g := NewGroup(s)
		g.Every("tick", time.Second, func() { at = append(at, s.Now().Sub(start)) })
		s.Sleep(3500 * time.Millisecond)
		g.Stop()
	})
	if len(at) != 3 || at[0] != time.Second || at[1] != 2*time.Second || at[2] != 3*time.Second {
		t.Errorf("ticks at %v, want [1s 2s 3s]", at)
	}
}

// TestEveryReturnsAfterShutdown: a loop nobody stopped ticks only while
// Run is in progress — virtual time stands still between Run returning
// and Shutdown, so the loop cannot free-run there — and ends when the
// simulation shuts down, instead of spinning on waits that no longer
// advance time.
func TestEveryReturnsAfterShutdown(t *testing.T) {
	s := NewSim(time.Time{})
	var ticks atomic.Int32
	s.Run("main", func() {
		NewGroup(s).Every("tick", time.Second, func() { ticks.Add(1) })
		s.Sleep(2500 * time.Millisecond)
	})
	ranUntil := s.Now()
	atRun := ticks.Load()
	time.Sleep(20 * time.Millisecond) // wall time for a free-running loop to show
	if extra := ticks.Load() - atRun; extra != 0 || !s.Now().Equal(ranUntil) {
		t.Errorf("after Run returned: %d more ticks, clock moved %v; want 0 and 0", extra, s.Now().Sub(ranUntil))
	}
	if atRun != 2 {
		t.Errorf("ticks during Run = %d, want 2", atRun)
	}
	s.Shutdown()
	done := make(chan struct{})
	go func() {
		s.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("Every still running 5s after Shutdown (%d ticks)", ticks.Load())
	}
	if extra := ticks.Load() - atRun; extra != 0 {
		t.Errorf("%d ticks after Shutdown, want 0", extra)
	}
}

// TestStopFromTaskWaitsWithoutDeadlock: Stop called from an ordinary
// task parks it on the scheduler until the group's last task returns;
// virtual time keeps running meanwhile.
func TestStopFromTaskWaitsWithoutDeadlock(t *testing.T) {
	eachEnv(t, func(t *testing.T, env Env, virtual bool) {
		g := NewGroup(env)
		g.Every("tick", time.Hour, func() {})
		g.Go("work", func() { env.Sleep(5 * time.Millisecond) })
		stopper := NewGroup(env)
		start := env.Now()
		var took time.Duration
		stopper.Go("stopper", func() {
			g.Stop()
			took = env.Now().Sub(start)
		})
		stopper.Wait()
		if took < 5*time.Millisecond || virtual && took != 5*time.Millisecond {
			t.Errorf("Stop returned after %v, want once the 5ms task finished", took)
		}
	})
}

func TestSimReportsLiveAndLeakedGroupTasks(t *testing.T) {
	s := NewSim(time.Time{})
	s.Run("main", func() {
		g := NewGroup(s)
		g.Every("loop", time.Hour, func() {})
		g.Go("work", func() { s.Sleep(time.Second) })
		if live := s.Live(false); live["loop"] != 1 || live["work"] != 1 {
			t.Errorf("Live = %v, want loop×1 work×1", live)
		}
		if leaked := s.Live(true); len(leaked) != 0 {
			t.Errorf("stopped groups' tasks before Stop = %v, want none (the group is running)", leaked)
		}
		// A Stop that did not wait would leave both tasks live.
		g.mu.Lock()
		g.stopped = true
		g.mu.Unlock()
		if leaked := s.Live(true); len(leaked) != 2 || leaked["loop"] != 1 || leaked["work"] != 1 {
			t.Errorf("stopped groups' tasks = %v, want loop×1 work×1", leaked)
		}
		g.Stop()
		if live := s.Live(false); len(live) != 0 {
			t.Errorf("after Stop: live = %v, want none", live)
		}
	})
	s.Shutdown()
	s.Wait()
}

// TestEventWaitReturnsOnShutdown: an unbounded wait does not outlive
// the simulation.
func TestEventWaitReturnsOnShutdown(t *testing.T) {
	s := NewSim(time.Time{})
	e := NewEvent(s, "never")
	s.Go("waiter", e.Wait)
	s.Run("main", func() { s.Sleep(time.Second) })
	s.Shutdown()
	s.Wait()
	if e.WaitTimeout(0) {
		t.Error("Shutdown fired the event")
	}
}
