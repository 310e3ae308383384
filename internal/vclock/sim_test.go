package vclock

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestSimSleepAdvancesVirtualTime(t *testing.T) {
	s := NewSim(time.Time{})
	start := s.Now()
	s.Run("main", func() {
		s.Sleep(90 * time.Minute)
	})
	if got := s.Now().Sub(start); got != 90*time.Minute {
		t.Fatalf("elapsed = %v, want 90m", got)
	}
}

func TestSimZeroAndNegativeSleepReturnImmediately(t *testing.T) {
	s := NewSim(time.Time{})
	start := s.Now()
	s.Run("main", func() {
		s.Sleep(0)
		s.Sleep(-time.Second)
	})
	if got := s.Now().Sub(start); got != 0 {
		t.Fatalf("elapsed = %v, want 0", got)
	}
}

func TestSimConcurrentSleepersWakeInOrder(t *testing.T) {
	s := NewSim(time.Time{})
	var order []int
	s.Run("main", func() {
		q := NewQueue[int](s, "done")
		for i, d := range []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond} {
			i, d := i, d
			s.Go("sleeper", func() {
				s.Sleep(d)
				q.Push(i)
			})
		}
		for range 3 {
			v, err := q.Pop()
			if err != nil {
				t.Errorf("Pop: %v", err)
				return
			}
			order = append(order, v)
		}
	})
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSimParallelSleepsOverlap(t *testing.T) {
	s := NewSim(time.Time{})
	start := s.Now()
	s.Run("main", func() {
		q := NewQueue[struct{}](s, "done")
		for range 10 {
			s.Go("sleeper", func() {
				s.Sleep(time.Second)
				q.Push(struct{}{})
			})
		}
		for range 10 {
			if _, err := q.Pop(); err != nil {
				t.Errorf("Pop: %v", err)
				return
			}
		}
	})
	if got := s.Now().Sub(start); got != time.Second {
		t.Fatalf("10 parallel 1s sleeps took %v of virtual time, want 1s", got)
	}
}

func TestSimDeterministicTimestamps(t *testing.T) {
	run := func() []time.Duration {
		s := NewSim(time.Time{})
		start := s.Now()
		var stamps []time.Duration
		s.Run("main", func() {
			q := NewQueue[time.Duration](s, "stamps")
			for i := 1; i <= 5; i++ {
				i := i
				s.Go("worker", func() {
					s.Sleep(time.Duration(i) * 7 * time.Millisecond)
					q.Push(s.Now().Sub(start))
				})
			}
			for range 5 {
				v, _ := q.Pop()
				stamps = append(stamps, v)
			}
		})
		return stamps
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run 1 stamps %v != run 2 stamps %v", a, b)
		}
	}
}

func TestSimDeadlockDetected(t *testing.T) {
	s := NewSim(time.Time{})
	var popErr error
	s.Run("main", func() {
		q := NewQueue[int](s, "never")
		_, popErr = q.Pop() // nothing will ever push
	})
	if popErr != ErrClosed {
		t.Fatalf("Pop err = %v, want ErrClosed", popErr)
	}
	if s.Err() == nil {
		t.Fatal("Err() = nil, want deadlock error")
	}
}

func TestSimulateReturnsTaskError(t *testing.T) {
	want := errors.New("boom")
	if err := Simulate("main", func(s *Sim) error {
		s.Sleep(time.Second)
		return want
	}); err != want {
		t.Fatalf("Simulate = %v, want %v", err, want)
	}
}

func TestSimulateReportsDeadlock(t *testing.T) {
	err := Simulate("main", func(s *Sim) error {
		_, _ = NewQueue[int](s, "never").Pop() // nothing will ever push
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("Simulate = %v, want deadlock error", err)
	}
}

func TestSimulateWaitsForSpawnedTasks(t *testing.T) {
	var finished atomic.Int32
	err := Simulate("main", func(s *Sim) error {
		q := NewQueue[int](s, "inbox")
		for range 3 {
			s.Go("server", func() {
				defer finished.Add(1)
				for {
					if _, err := q.Pop(); err != nil {
						return
					}
				}
			})
		}
		s.Go("sleeper", func() {
			s.Sleep(time.Hour) // cut short by the shutdown
			finished.Add(1)
		})
		q.Push(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := finished.Load(); got != 4 {
		t.Fatalf("%d of 4 spawned tasks finished before Simulate returned", got)
	}
}

func TestSimShutdownUnblocksServers(t *testing.T) {
	s := NewSim(time.Time{})
	q := NewQueue[int](s, "inbox")
	exited := make(chan struct{})
	s.Go("server", func() {
		defer close(exited)
		for {
			if _, err := q.Pop(); err != nil {
				return
			}
		}
	})
	s.Run("main", func() {
		q.Push(1)
		s.Sleep(time.Millisecond)
	})
	s.Shutdown()
	s.Wait()
	select {
	case <-exited:
	default:
		t.Fatal("server task did not exit after Shutdown")
	}
}

func TestSimSleepAfterShutdownReturns(t *testing.T) {
	s := NewSim(time.Time{})
	s.Shutdown()
	s.Run("main", func() {
		s.Sleep(time.Hour) // must not block forever
	})
}

func TestSimRunSequentialMains(t *testing.T) {
	s := NewSim(time.Time{})
	total := 0
	for i := range 3 {
		s.Run("main", func() {
			s.Sleep(time.Second)
			total += i + 1
		})
	}
	if total != 6 {
		t.Fatalf("total = %d, want 6", total)
	}
	if got := s.Now().Sub(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)); got != 3*time.Second {
		t.Fatalf("elapsed = %v, want 3s", got)
	}
}

func TestSimCustomStartTime(t *testing.T) {
	start := time.Date(2026, 7, 4, 12, 0, 0, 0, time.UTC)
	s := NewSim(start)
	if !s.Now().Equal(start) {
		t.Fatalf("Now = %v, want %v", s.Now(), start)
	}
}

func TestRealClockBasics(t *testing.T) {
	var r Real
	before := r.Now()
	r.Sleep(time.Millisecond)
	if !r.Now().After(before) {
		t.Fatal("real clock did not advance")
	}
	done := false
	r.Go("task", func() { done = true })
	r.Wait()
	if !done {
		t.Fatal("task did not run")
	}
}
