package vclock

import (
	"testing"
	"testing/quick"
	"time"
)

func TestQueueFIFO(t *testing.T) {
	s := NewSim(time.Time{})
	s.Run("main", func() {
		q := NewQueue[int](s, "q")
		for i := range 100 {
			q.Push(i)
		}
		for i := range 100 {
			v, err := q.Pop()
			if err != nil {
				t.Errorf("Pop: %v", err)
				return
			}
			if v != i {
				t.Errorf("Pop = %d, want %d", v, i)
				return
			}
		}
	})
}

func TestQueueFIFOProperty(t *testing.T) {
	// Property: any pushed sequence pops back identically.
	f := func(items []int16) bool {
		s := NewSim(time.Time{})
		ok := true
		s.Run("main", func() {
			q := NewQueue[int16](s, "q")
			for _, v := range items {
				q.Push(v)
			}
			for _, want := range items {
				got, err := q.Pop()
				if err != nil || got != want {
					ok = false
					return
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQueuePopWaitTimesOut(t *testing.T) {
	s := NewSim(time.Time{})
	start := s.Now()
	s.Run("main", func() {
		q := NewQueue[int](s, "q")
		if _, err := q.PopWait(5 * time.Millisecond); err != ErrTimeout {
			t.Errorf("PopWait err = %v, want ErrTimeout", err)
		}
	})
	if got := s.Now().Sub(start); got != 5*time.Millisecond {
		t.Fatalf("timeout consumed %v of virtual time, want 5ms", got)
	}
}

func TestQueuePopWaitDeliversBeforeDeadline(t *testing.T) {
	s := NewSim(time.Time{})
	s.Run("main", func() {
		q := NewQueue[string](s, "q")
		s.Go("producer", func() {
			s.Sleep(2 * time.Millisecond)
			q.Push("hello")
		})
		v, err := q.PopWait(50 * time.Millisecond)
		if err != nil || v != "hello" {
			t.Errorf("PopWait = %q, %v; want hello, nil", v, err)
		}
	})
}

func TestQueuePopWaitZeroPolls(t *testing.T) {
	s := NewSim(time.Time{})
	s.Run("main", func() {
		q := NewQueue[int](s, "q")
		if _, err := q.PopWait(0); err != ErrTimeout {
			t.Errorf("empty poll err = %v, want ErrTimeout", err)
		}
		q.Push(7)
		v, err := q.PopWait(0)
		if err != nil || v != 7 {
			t.Errorf("poll = %d, %v; want 7, nil", v, err)
		}
	})
}

func TestQueueCloseWakesWaiter(t *testing.T) {
	s := NewSim(time.Time{})
	s.Run("main", func() {
		q := NewQueue[int](s, "q")
		s.Go("closer", func() {
			s.Sleep(time.Millisecond)
			q.Close()
		})
		if _, err := q.Pop(); err != ErrClosed {
			t.Errorf("Pop err = %v, want ErrClosed", err)
		}
	})
}

func TestQueueCloseIsIdempotentAndDropsPushes(t *testing.T) {
	s := NewSim(time.Time{})
	s.Run("main", func() {
		q := NewQueue[int](s, "q")
		q.Close()
		q.Close()
		q.Push(1) // must not panic, silently dropped
		if _, err := q.Pop(); err != ErrClosed {
			t.Errorf("Pop err = %v, want ErrClosed", err)
		}
	})
}

func TestQueueManyProducersOneConsumer(t *testing.T) {
	s := NewSim(time.Time{})
	s.Run("main", func() {
		q := NewQueue[int](s, "q")
		const producers = 20
		for i := range producers {
			i := i
			s.Go("producer", func() {
				s.Sleep(time.Duration(i%5) * time.Millisecond)
				q.Push(i)
			})
		}
		sum := 0
		for range producers {
			v, err := q.Pop()
			if err != nil {
				t.Errorf("Pop: %v", err)
				return
			}
			sum += v
		}
		if want := producers * (producers - 1) / 2; sum != want {
			t.Errorf("sum = %d, want %d", sum, want)
		}
	})
}

func TestQueueLen(t *testing.T) {
	s := NewSim(time.Time{})
	s.Run("main", func() {
		q := NewQueue[int](s, "q")
		if q.Len() != 0 {
			t.Errorf("Len = %d, want 0", q.Len())
		}
		q.Push(1)
		q.Push(2)
		if q.Len() != 2 {
			t.Errorf("Len = %d, want 2", q.Len())
		}
	})
}
