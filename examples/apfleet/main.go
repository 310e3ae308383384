// Command apfleet replays the paper's full 30-app workload (two real apps
// plus 28 generated ones, Zipf usage at 3 executions/minute) against all
// four systems for a stretch of virtual time and prints the Fig 13-style
// comparison: mean and tail app-level latency plus AP cache hit ratios.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"apecache/internal/testbed"
	"apecache/internal/vclock"
	"apecache/internal/workload"
)

func main() {
	apps := flag.Int("apps", 30, "total number of apps (2 real + N-2 synthetic)")
	minutes := flag.Int("minutes", 20, "virtual minutes to replay")
	capacity := flag.Int64("cache", 5<<20, "AP cache capacity in bytes")
	prefetch := flag.Bool("prefetch", false, "enable dependency-driven AP prefetching (APPx-style extension)")
	flag.Parse()
	if err := run(*apps, *minutes, *capacity, *prefetch); err != nil {
		fmt.Fprintln(os.Stderr, "apfleet:", err)
		os.Exit(1)
	}
}

func run(apps, minutes int, capacity int64, prefetch bool) error {
	suite := workload.Generate(workload.GeneratorConfig{NumApps: apps - 2, Seed: 31})
	duration := time.Duration(minutes) * time.Minute
	fmt.Printf("replaying %d apps for %v of virtual time (AP cache %d KB, prefetch=%v)\n\n",
		len(suite.Apps), duration, capacity>>10, prefetch)
	fmt.Printf("%-14s  %10s  %10s  %9s  %10s  %s\n",
		"system", "mean (ms)", "p95 (ms)", "hit ratio", "high-prio", "executions")

	for _, system := range testbed.Systems {
		err := vclock.Simulate("apfleet", func(sim *vclock.Sim) error {
			tb, err := testbed.New(sim, system, testbed.Config{
				Suite:          suite,
				Seed:           31,
				CacheCapacity:  capacity,
				EnablePrefetch: prefetch,
			})
			if err != nil {
				return err
			}
			res := workload.Run(sim, suite, tb.FetcherFor, duration, 13)
			if res.Failures > 0 {
				return fmt.Errorf("%v: %d failed executions", system, res.Failures)
			}
			hits := tb.HitStats()
			hitCol, highCol := "n/a", "n/a"
			if hits.All.Total() > 0 {
				hitCol = fmt.Sprintf("%.3f", hits.All.Ratio())
				highCol = fmt.Sprintf("%.3f", hits.High.Ratio())
			}
			fmt.Printf("%-14s  %10.2f  %10.2f  %9s  %10s  %d\n",
				system.String(),
				float64(res.Overall.Mean())/float64(time.Millisecond),
				float64(res.Overall.P95())/float64(time.Millisecond),
				hitCol, highCol, res.Executions)
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}
