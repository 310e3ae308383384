package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark itself reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// aa runs the whole gating set twice back to back on the same code and
// requires every (workload, end-to-end metric) pair of the second set to
// be no worse than the first by more than the metric's bound — the rule a
// later change is held to, applied to no change at all.
func (run *runner) aa() error {
	file, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-aa needs the bounds: %w", err)
	}
	bound := map[string]float64{}
	for _, m := range file.EndToEnd {
		bound[m.Name] = m.Bound
	}
	run.header("A/A")
	var sets [2][]*summary
	for i := range sets {
		run.printf("set %d\n", i+1)
		if sets[i], err = run.gatingSet(); err != nil {
			return err
		}
	}
	run.printf("\n%-10s %-16s %14s %14s %9s %8s\n", "workload", "metric", "set 1", "set 2", "worse by", "bound")
	failed := 0
	for w, s1 := range sets[0] {
		s2 := sets[1][w]
		for _, m := range endToEnd {
			a, b := s1.value[m.name], s2.value[m.name]
			worse := (b - a) / a // positive = the second set is worse
			if m.higher {
				worse = -worse
			}
			verdict := ""
			if worse > bound[m.name] {
				verdict = "  OUTSIDE"
				failed++
			}
			run.printf("%-10s %-16s %14.4f %14.4f %8.2f%% %7.1f%%%s\n",
				s1.spec.name, m.name, a, b, 100*worse, 100*bound[m.name], verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("A/A: %d metric(s) differ by more than their bound between two runs of the same code", failed)
	}
	results := map[string]*result{}
	for _, s := range sets[1] {
		results[s.spec.name] = s.result()
	}
	return run.emit(results)
}
