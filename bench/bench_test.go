package main

import (
	"bytes"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"testing"
	"time"

	"apecache/internal/coherence"
)

func loadBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	f, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func sortedKeys(m map[string]metricValue) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedNames(ms []boundedMetric) []string {
	names := make([]string, 0, len(ms))
	for _, m := range ms {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs every workload briefly through both modes, with no timing
// assertions: the output checks must pass, the emitted names must be the
// ones BENCHMARK.json declares, and every round must return its goroutines.
func TestSmoke(t *testing.T) {
	file := loadBenchmarkFile(t)
	baseline := runtime.NumGoroutine()
	traceDir := t.TempDir()
	for _, spec := range workloads {
		// No timing assertions: a loaded test machine may stall a purge
		// relay past the workload's real bound.
		spec.staleBound = time.Minute
		r, err := runRound(spec, 1, 200*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if err := settleGoroutines(baseline); err != nil {
			t.Fatalf("%s: after the gating round: %v", spec.name, err)
		}
		got := sortedKeys(summarize(spec, []*round{r}).result().Metrics)
		if want := sortedNames(file.EndToEnd); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: end-to-end metrics %v, BENCHMARK.json has %v", spec.name, got, want)
		}

		res, err := traceRun(spec, 1, 400*time.Millisecond, traceDir)
		if err != nil {
			t.Fatal(err)
		}
		if err := settleGoroutines(baseline); err != nil {
			t.Fatalf("%s: after the traced run: %v", spec.name, err)
		}
		got = sortedKeys(res.result().Metrics)
		if want := sortedNames(file.PerLayer); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: per-layer metrics %v, BENCHMARK.json has %v", spec.name, got, want)
		}
		for name := range res.metrics {
			if _, ok := res.result().Metrics[name]; !ok {
				t.Errorf("%s: traced run measured %q, which is not a declared per-layer metric", spec.name, name)
			}
		}
	}
}

// TestBenchmarkFile keeps BENCHMARK.json and the code in step.
func TestBenchmarkFile(t *testing.T) {
	file := loadBenchmarkFile(t)
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	var names []string
	for _, w := range file.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, code has %v", names, want)
	}
	check := func(kind string, declared []boundedMetric, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: %d metrics declared, code reports %d", kind, len(declared), len(defs))
		}
		for i, d := range defs {
			m := declared[i]
			names = append(names, m.Name)
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if m.Name != d.name || m.Unit != d.unit || m.Better != better {
				t.Errorf("%s[%d]: declared %+v, code has %+v", kind, i, m, d)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd)
	check("per_layer", file.PerLayer, perLayer)
	seen := map[string]bool{}
	for _, n := range names {
		if !valid.MatchString(n) || len(n) > 64 {
			t.Errorf("name %q is not made of [A-Za-z0-9_.-] or is too long", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	var setup float64
	for _, m := range file.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	for _, m := range file.EndToEnd {
		if m.Bound > setup {
			t.Errorf("%s: bound %v exceeds setup_s's %v, which must be the largest", m.Name, m.Bound, setup)
		}
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	hit, _ := findWorkload("hit-small")
	o := generate(hit, 1).objects[0]
	body := append([]byte(nil), o.body...)
	if v := o.verify(body, time.Now()); v != bodyOK {
		t.Fatalf("intact body: verdict %d", v)
	}
	body[len(body)/2] ^= 1
	if v := o.verify(body, time.Now()); v != bodyWrong {
		t.Fatalf("corrupted body: verdict %d, want wrong", v)
	}
	if v := o.verify(body[:len(body)-1], time.Now()); v != bodyWrong {
		t.Fatalf("truncated body: verdict %d, want wrong", v)
	}

	purge, _ := findWorkload("purge-mix")
	o = generate(purge, 1).objects[0]
	old := o.ver.cur.Load()
	if err := o.bump(func(coherence.Msg) error { return nil }); err != nil {
		t.Fatal(err)
	}
	cur := o.ver.cur.Load()
	if bytes.Equal(old.body, cur.body) {
		t.Fatal("a bump did not change the body")
	}
	if v := o.verify(cur.body, time.Now()); v != bodyOK {
		t.Fatalf("current version: verdict %d", v)
	}
	if v := o.verify(old.body, time.Now()); v != bodyOK {
		t.Fatalf("version superseded just now: verdict %d, want ok (inside the stale bound)", v)
	}
	if v := o.verify(old.body, time.Now().Add(2*purge.staleBound)); v != bodyStale {
		t.Fatalf("version superseded %v before the Get: verdict %d, want stale", 2*purge.staleBound, v)
	}
	bad := append([]byte(nil), cur.body...)
	bad[0] ^= 0x80
	if v := o.verify(bad, time.Now()); v != bodyWrong {
		t.Fatalf("corrupted versioned body: verdict %d, want wrong", v)
	}
}

func TestSeedDeterminism(t *testing.T) {
	for _, spec := range workloads {
		a, b, c := generate(spec, 7), generate(spec, 7), generate(spec, 8)
		if !reflect.DeepEqual(a.ops, b.ops) || !reflect.DeepEqual(a.purges, b.purges) {
			t.Errorf("%s: the same seed gave different op lists", spec.name)
		}
		if reflect.DeepEqual(a.ops, c.ops) {
			t.Errorf("%s: different seeds gave the same op list", spec.name)
		}
		for i := range a.objects {
			if a.objects[i].url != b.objects[i].url || !bytes.Equal(a.objects[i].body, b.objects[i].body) {
				t.Fatalf("%s: the same seed gave a different object %d", spec.name, i)
			}
		}
	}
}
