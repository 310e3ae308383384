package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// runner holds what the command line selected.
type runner struct {
	specs    []workloadSpec
	seed     int64
	measure  time.Duration // measured time per workload, split over the rounds
	traceOut string
	out      io.Writer // human-readable report; nil prints the JSON line only
	baseline int       // goroutines before the first stack
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed last for one workload.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (run *runner) printf(format string, a ...any) {
	if run.out != nil {
		fmt.Fprintf(run.out, format, a...)
	}
}

// emit prints the result line: the bare object for a single workload (the
// form the benchmark driver reads), an object keyed by workload otherwise.
func (run *runner) emit(results map[string]*result) error {
	var v any = results
	if len(run.specs) == 1 {
		v = results[run.specs[0].name]
	}
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// header prints the machine context every report carries.
func (run *runner) header(mode string) {
	kernel := runtime.GOOS
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	commit := "unknown"
	if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	run.printf("bench %s: %s %s/%s GOMAXPROCS=%d NumCPU=%d kernel=%s commit=%s seed=%d\n",
		mode, runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU(), kernel, commit, run.seed)
	run.printf("load: closed loop, %d clients, FlagTTL=%v, AP cache %d MiB, host loopback (127.0.0.1) — not a WiFi link\n",
		numClients, clientFlagTTL, cacheCapacity>>20)
}

// summary is one workload's gating outcome: per metric the median over
// the rounds and the spread beside it.
type summary struct {
	spec   workloadSpec
	rounds []*round
	value  map[string]float64
	lo, hi map[string]float64
	total  tally
}

func summarize(spec workloadSpec, rounds []*round) *summary {
	s := &summary{spec: spec, rounds: rounds,
		value: map[string]float64{}, lo: map[string]float64{}, hi: map[string]float64{}}
	for _, m := range endToEnd {
		var vals []float64
		for _, r := range rounds {
			vals = append(vals, r.metrics[m.name])
		}
		if m.name == "latency_p99_us" {
			// The median over every window of every round, not the median
			// of per-round medians.
			vals = vals[:0]
			for _, r := range rounds {
				for _, p := range r.p99s {
					vals = append(vals, us(p))
				}
			}
		}
		s.value[m.name] = median(vals)
		s.lo[m.name], s.hi[m.name] = minMax(vals)
	}
	for _, r := range rounds {
		s.total.add(r.total)
	}
	return s
}

// spreadPct is (max - min) / median in percent.
func (s *summary) spreadPct(name string) float64 {
	if s.value[name] == 0 {
		return 0
	}
	return 100 * (s.hi[name] - s.lo[name]) / s.value[name]
}

func (s *summary) result() *result {
	res := &result{Correct: true, Attempted: s.total.attempted, Failed: s.total.failed(),
		Metrics: map[string]metricValue{}}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metricValue{Value: s.value[m.name], Unit: m.unit}
	}
	return res
}

// gatingSet runs every selected workload for roundsPerRun rounds, each on
// a fresh stack, interleaving the workloads (A B C D A B C D ...) so that
// minute-scale drift of a shared machine spreads over all of them.
func (run *runner) gatingSet() ([]*summary, error) {
	rounds := make([][]*round, len(run.specs))
	per := run.measure / roundsPerRun
	for i := 0; i < roundsPerRun; i++ {
		for w, spec := range run.specs {
			r, err := runRound(spec, run.seed, per)
			if err == nil {
				err = settleGoroutines(run.baseline)
			}
			if err != nil {
				return nil, err
			}
			run.printf("  round %d %-10s wall %5.2fs  set-up %5.2fs  %7d ops  %8.0f op/s  p50 %7.1f us\n",
				i+1, spec.name, r.wall.Seconds(), r.setup.Seconds(), r.ph.attempted,
				r.metrics["throughput_rps"], r.metrics["latency_p50_us"])
			rounds[w] = append(rounds[w], r)
		}
	}
	out := make([]*summary, len(run.specs))
	for w, spec := range run.specs {
		out[w] = summarize(spec, rounds[w])
	}
	return out, nil
}

func (run *runner) printSummary(s *summary) {
	n, windows, beyond := 0, 0, -1
	for _, r := range s.rounds {
		n += len(r.ph.samples)
		windows += len(r.p99s)
		if beyond < 0 || r.beyond < beyond {
			beyond = r.beyond
		}
	}
	run.printf("\n%s — %s\n", s.spec.name, s.spec.why)
	run.printf("  %d rounds, %d measured ops, %d p99 windows (>= %d samples beyond each)\n",
		len(s.rounds), n, windows, beyond)
	run.printf("  %-18s %14s %-6s %28s %8s\n", "metric", "median", "unit", "min .. max over rounds", "spread")
	for _, m := range endToEnd {
		run.printf("  %-18s %14.4f %-6s %13.4f .. %-13.4f %7.2f%%\n",
			m.name, s.value[m.name], m.unit, s.lo[m.name], s.hi[m.name], s.spreadPct(m.name))
	}
	t := s.total
	run.printf("  %-18s %14.6f %-6s (%d errors + %d wrong bodies + %d stale beyond bound) / %d attempted incl. set-up\n",
		"failed_ratio", float64(t.failed())/float64(t.attempted), "ratio", t.errs, t.wrong, t.stale, t.attempted)
}

// gating is the default mode: the gating rounds, a report, the result line.
func (run *runner) gating() error {
	run.header("gating")
	sums, err := run.gatingSet()
	if err != nil {
		return err
	}
	results := map[string]*result{}
	for _, s := range sums {
		run.printSummary(s)
		results[s.spec.name] = s.result()
	}
	return run.emit(results)
}
