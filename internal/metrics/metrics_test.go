package metrics

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestLatencyStatsMeanAndPercentiles(t *testing.T) {
	var s LatencyStats
	for i := 1; i <= 100; i++ {
		s.Add(time.Duration(i) * time.Millisecond)
	}
	if got := s.Mean(); got != 50500*time.Microsecond {
		t.Errorf("Mean = %v, want 50.5ms", got)
	}
	if got := s.P95(); got != 95*time.Millisecond {
		t.Errorf("P95 = %v, want 95ms", got)
	}
	if got := s.Percentile(50); got != 50*time.Millisecond {
		t.Errorf("P50 = %v, want 50ms", got)
	}
	if got := s.Max(); got != 100*time.Millisecond {
		t.Errorf("Max = %v, want 100ms", got)
	}
	if got := s.Min(); got != time.Millisecond {
		t.Errorf("Min = %v, want 1ms", got)
	}
}

func TestLatencyStatsEmpty(t *testing.T) {
	var s LatencyStats
	if s.Mean() != 0 || s.P95() != 0 || s.Count() != 0 {
		t.Error("empty stats should report zeros")
	}
}

func TestLatencyStatsAddAfterPercentileKeepsConsistency(t *testing.T) {
	var s LatencyStats
	s.Add(3 * time.Millisecond)
	s.Add(time.Millisecond)
	_ = s.P95() // triggers sorting
	s.Add(2 * time.Millisecond)
	if got := s.Percentile(50); got != 2*time.Millisecond {
		t.Errorf("P50 = %v, want 2ms", got)
	}
}

func TestPercentileWithinSampleRangeProperty(t *testing.T) {
	f := func(raw []uint16, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var s LatencyStats
		vals := make([]time.Duration, len(raw))
		for i, v := range raw {
			vals[i] = time.Duration(v) * time.Microsecond
			s.Add(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		p := float64(pRaw%100) + 1
		got := s.Percentile(p)
		return got >= vals[0] && got <= vals[len(vals)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyStatsMerge(t *testing.T) {
	var a, b LatencyStats
	a.Add(10 * time.Millisecond)
	b.Add(30 * time.Millisecond)
	a.Merge(&b)
	if a.Count() != 2 || a.Mean() != 20*time.Millisecond {
		t.Errorf("after merge: count=%d mean=%v", a.Count(), a.Mean())
	}
}

func TestRatioCounter(t *testing.T) {
	var r RatioCounter
	if r.Ratio() != 0 {
		t.Error("empty ratio should be 0")
	}
	r.Record(true)
	r.Record(true)
	r.Record(false)
	if r.Ratio() < 0.66 || r.Ratio() > 0.67 {
		t.Errorf("Ratio = %f, want 2/3", r.Ratio())
	}
	if r.Hits() != 2 || r.Total() != 3 {
		t.Errorf("hits=%d total=%d", r.Hits(), r.Total())
	}
}

func TestHitStatsSplitsPriorities(t *testing.T) {
	var h HitStats
	h.Record(1, true)
	h.Record(2, true)
	h.Record(2, false)
	if h.All.Total() != 3 || h.High.Total() != 2 {
		t.Errorf("totals all=%d high=%d", h.All.Total(), h.High.Total())
	}
	if h.High.Ratio() != 0.5 {
		t.Errorf("high ratio = %f, want 0.5", h.High.Ratio())
	}
}

func TestTimeSeries(t *testing.T) {
	var ts TimeSeries
	base := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	ts.Sample(base, 10)
	ts.Sample(base.Add(time.Second), 30)
	if ts.Mean() != 20 {
		t.Errorf("Mean = %f, want 20", ts.Mean())
	}
	if ts.Max() != 30 {
		t.Errorf("Max = %f, want 30", ts.Max())
	}
	if len(ts.Points()) != 2 {
		t.Errorf("Points = %d, want 2", len(ts.Points()))
	}
}

func TestTimeSeriesBoundedKeepsExactMeanMax(t *testing.T) {
	var bounded, free TimeSeries
	bounded.SetMaxPoints(64)
	base := time.Unix(0, 0)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 10000; i++ {
		v := rng.Float64() * 100
		ts := base.Add(time.Duration(i) * time.Second)
		bounded.Sample(ts, v)
		free.Sample(ts, v)
	}
	if len(bounded.Points()) >= 64 {
		t.Errorf("bounded series holds %d points", len(bounded.Points()))
	}
	if bounded.Mean() != free.Mean() {
		t.Errorf("Mean %v != %v (must be exact)", bounded.Mean(), free.Mean())
	}
	if bounded.Max() != free.Max() {
		t.Errorf("Max %v != %v (must be exact)", bounded.Max(), free.Max())
	}
	if bounded.Count() != 10000 {
		t.Errorf("Count = %d", bounded.Count())
	}
	// Decimated points preserve chronological order.
	pts := bounded.Points()
	for i := 1; i < len(pts); i++ {
		if !pts[i-1].T.Before(pts[i].T) {
			t.Fatalf("points out of order at %d", i)
		}
	}
}

func TestRatioCounterMerge(t *testing.T) {
	var a, b RatioCounter
	a.Record(true)
	b.Record(false)
	b.Record(true)
	a.Merge(&b)
	if a.Total() != 3 || a.Hits() != 2 {
		t.Errorf("after merge: hits=%d total=%d", a.Hits(), a.Total())
	}
}

func TestHitStatsMerge(t *testing.T) {
	var a, b HitStats
	a.Record(2, true)
	b.Record(2, false)
	b.Record(1, true)
	a.Merge(&b)
	if a.All.Total() != 3 || a.High.Total() != 2 {
		t.Errorf("after merge: all=%d high=%d", a.All.Total(), a.High.Total())
	}
	if a.High.Hits() != 1 {
		t.Errorf("high hits = %d", a.High.Hits())
	}
}

func TestLatencyStatsStringFormat(t *testing.T) {
	var s LatencyStats
	s.Add(10 * time.Millisecond)
	out := s.String()
	if out == "" || s.Count() != 1 {
		t.Errorf("String = %q", out)
	}
}

// TestPercentilePreservesInsertionOrder is the regression test for the
// in-place-sort bug: Percentile used to reorder the sample slice itself,
// so interleaved Add/Percentile/Merge calls destroyed the chronological
// series. The sorted shadow must keep Samples() in insertion order while
// percentiles stay correct at every step.
func TestPercentilePreservesInsertionOrder(t *testing.T) {
	inserted := []time.Duration{9, 1, 7, 3, 8, 2}
	var s LatencyStats
	s.Add(inserted[0])
	s.Add(inserted[1])
	s.Add(inserted[2])
	if got := s.Percentile(100); got != 9 {
		t.Fatalf("max of first three = %v, want 9", got)
	}
	s.Add(inserted[3]) // Add after Percentile
	var other LatencyStats
	other.Add(inserted[4])
	_ = other.Percentile(50) // sort the donor too
	other.Add(inserted[5])
	s.Merge(&other) // Merge after both sides sorted

	got := s.Samples()
	if len(got) != len(inserted) {
		t.Fatalf("len = %d, want %d", len(got), len(inserted))
	}
	for i, want := range inserted {
		if got[i] != want {
			t.Fatalf("insertion order broken at %d: %v, want %v (full: %v)", i, got[i], want, got)
		}
	}
	// Percentiles over the merged set remain correct.
	if s.Percentile(100) != 9 || s.Min() != 1 || s.Percentile(50) != 3 {
		t.Errorf("percentiles wrong: max=%v min=%v p50=%v", s.Percentile(100), s.Min(), s.Percentile(50))
	}
	// And the sorted shadow did not leak into the visible series.
	again := s.Samples()
	for i, want := range inserted {
		if again[i] != want {
			t.Fatalf("order broken after percentile at %d: %v", i, again)
		}
	}
}

// TestSamplesReturnsCopy guards against the accessor aliasing internals.
func TestSamplesReturnsCopy(t *testing.T) {
	var s LatencyStats
	s.Add(5)
	got := s.Samples()
	got[0] = 99
	if s.Samples()[0] != 5 {
		t.Error("Samples aliases the internal slice")
	}
}
