package decisionlog

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

func TestClassifyTaxonomy(t *testing.T) {
	cases := []struct {
		op   Op
		want Cause
	}{
		{OpRejectBlocked, CauseNeverAdmitted},
		{OpRejectStale, CauseNeverAdmitted},
		{OpEvictCapacity, CauseEvicted},
		{OpEvictGini, CauseGini},
		{OpExpire, CauseExpired},
		{OpPurge, CausePurged},
		{OpStaleServe, CausePurged},
		{OpPeerFail, CausePeerFailed},
	}
	for _, tc := range cases {
		l := New(16)
		url := "http://app1.example/a"
		l.Record(Event{Time: t0, Op: tc.op, URL: url})
		if got := l.Classify(url, t0); got != tc.want {
			t.Errorf("%s: classified %s, want %s", tc.op, got, tc.want)
		}
	}

	l := New(16)
	if got := l.Classify("http://app1.example/never", t0); got != CauseCold {
		t.Errorf("unseen URL classified %s, want cold", got)
	}
	// A fill whose TTL deadline passed but whose sweep has not run
	// attributes to expired; a fresh fill falls back to cold.
	url := "http://app1.example/fill"
	l.Record(Event{Time: t0, Op: OpAdmit, URL: url, Expiry: t0.Add(time.Minute)})
	if got := l.Classify(url, t0.Add(2*time.Minute)); got != CauseExpired {
		t.Errorf("lapsed fill classified %s, want expired", got)
	}
	if got := l.Classify(url, t0.Add(30*time.Second)); got != CauseCold {
		t.Errorf("fresh fill classified %s, want cold", got)
	}
}

func TestIdentitySumEqualsTotal(t *testing.T) {
	l := New(64)
	rng := rand.New(rand.NewSource(7))
	ops := []Op{
		OpAdmit, OpRejectBlocked, OpEvictCapacity, OpEvictGini,
		OpExpire, OpPurge, OpPeerFail,
	}
	for i := 0; i < 500; i++ {
		url := fmt.Sprintf("http://app%d.example/o%d", rng.Intn(3)+1, rng.Intn(40))
		if rng.Intn(2) == 0 {
			l.Record(Event{Time: t0, Op: ops[rng.Intn(len(ops))], URL: url})
		} else {
			l.Classify(url, t0)
		}
		// Probe must never perturb the identity.
		l.Probe(url, t0)
	}
	var sum uint64
	for _, c := range Causes {
		sum += l.CauseCount(c)
	}
	if sum != l.TotalMisses() {
		t.Fatalf("cause sum %d != total misses %d", sum, l.TotalMisses())
	}
	if l.TotalMisses() == 0 {
		t.Fatal("expected some classified misses")
	}
}

func TestRingOverwritePrunesURLIndex(t *testing.T) {
	const ringCap = 32
	l := New(ringCap)
	for i := 0; i < 10*ringCap; i++ {
		l.Record(Event{Time: t0, Op: OpAdmit, URL: fmt.Sprintf("http://app1.example/o%d", i)})
	}
	if got := l.URLsIndexed(); got > ringCap {
		t.Fatalf("URL index holds %d entries, ring cap is %d", got, ringCap)
	}
	if l.Len() != ringCap {
		t.Fatalf("Len = %d, want %d", l.Len(), ringCap)
	}
	// An overwritten URL has no retained history and classifies cold.
	if ev := l.Explain("http://app1.example/o0"); len(ev) != 0 {
		t.Fatalf("overwritten URL still has %d events", len(ev))
	}
	if got := l.Probe("http://app1.example/o0", t0); got != CauseCold {
		t.Fatalf("overwritten URL classified %s, want cold", got)
	}
	// The newest URL is still fully indexed.
	last := fmt.Sprintf("http://app1.example/o%d", 10*ringCap-1)
	if ev := l.Explain(last); len(ev) != 1 || ev[0].URL != last {
		t.Fatalf("newest URL history = %+v", ev)
	}
}

func TestExplainBoundedOldestFirst(t *testing.T) {
	l := New(256)
	url := "http://app1.example/hot"
	for i := 0; i < urlHistCap+4; i++ {
		l.Record(Event{Time: t0.Add(time.Duration(i) * time.Second), Op: OpUpdate, URL: url})
	}
	ev := l.Explain(url)
	if len(ev) != urlHistCap {
		t.Fatalf("Explain kept %d events, want %d", len(ev), urlHistCap)
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].Seq <= ev[i-1].Seq {
			t.Fatalf("events not oldest-first: %d after %d", ev[i].Seq, ev[i-1].Seq)
		}
	}
	if ev[len(ev)-1].Seq != uint64(urlHistCap+4) {
		t.Fatalf("newest retained seq = %d, want %d", ev[len(ev)-1].Seq, urlHistCap+4)
	}
}

func TestConcurrentLedger(t *testing.T) {
	l := New(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				url := fmt.Sprintf("http://app%d.example/o%d", g%3+1, i%50)
				switch i % 3 {
				case 0:
					l.Record(Event{Time: t0, Op: OpAdmit, URL: url, Expiry: t0.Add(time.Hour)})
				case 1:
					l.Classify(url, t0)
				default:
					l.Explain(url)
				}
			}
		}(g)
	}
	wg.Wait()
	var sum uint64
	for _, c := range Causes {
		sum += l.CauseCount(c)
	}
	if sum != l.TotalMisses() {
		t.Fatalf("cause sum %d != total %d after concurrent use", sum, l.TotalMisses())
	}
	if got := l.URLsIndexed(); got > 128 {
		t.Fatalf("URL index grew past ring cap: %d", got)
	}
}

func TestCountsMapComplete(t *testing.T) {
	l := New(16)
	counts := l.Counts()
	if len(counts) != NumCauses {
		t.Fatalf("Counts has %d keys, want %d", len(counts), NumCauses)
	}
	for _, c := range Causes {
		if _, ok := counts[string(c)]; !ok {
			t.Fatalf("Counts missing cause %q", c)
		}
	}
}
