// Command virtualhome runs the paper's second real-world app (Fig 10): an
// AR furniture app that fetches the identifiers of AR objects for a
// product category and then the AR objects themselves — a sequential
// two-stage critical path dominated by the large ARObjects payload. It
// compares all four systems on the same workload.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"apecache"
	"apecache/internal/appmodel"
	"apecache/internal/metrics"
	"apecache/internal/testbed"
	"apecache/internal/vclock"
	"apecache/internal/workload"
)

// arCatalog declares the app's two cacheable objects via struct tags
// (Table III: ARObjects high priority, ARObjectsID low priority).
type arCatalog struct {
	ARObjectsID []byte `cacheable:"id=http://api.virtualhome.example/arobjectsid,priority=1,ttl=30"`
	ARObjects   []byte `cacheable:"id=http://api.virtualhome.example/arobjects,priority=2,ttl=30"`
}

func main() {
	runs := flag.Int("runs", 20, "number of app executions per system")
	model := flag.String("model", "annotations", "programming model: annotations or api")
	flag.Parse()
	if err := run(*runs, *model); err != nil {
		fmt.Fprintln(os.Stderr, "virtualhome:", err)
		os.Exit(1)
	}
}

func run(runs int, model string) error {
	suite := workload.Generate(workload.GeneratorConfig{NumApps: 1, Seed: 9})
	app := suite.Apps[1] // the VirtualHome DAG

	reg := apecache.NewRegistry("VirtualHome")
	if err := reg.RegisterStruct(&arCatalog{}); err != nil {
		return err
	}
	fmt.Printf("struct tags declared %d cacheable objects\n", reg.Len())

	for _, system := range testbed.Systems {
		var stats metrics.LatencyStats
		err := vclock.Simulate("virtualhome", func(sim *vclock.Sim) error {
			tb, err := testbed.New(sim, system, testbed.Config{Suite: suite, Seed: 9})
			if err != nil {
				return err
			}
			fetcher := tb.FetcherFor(app)
			if model == "api" && system == testbed.SystemAPECache {
				client, ok := fetcher.(*apecache.Client)
				if !ok {
					return fmt.Errorf("api model needs the APE-CACHE client")
				}
				return runAPIBased(sim, client, runs, &stats)
			}
			for range runs {
				res := appmodel.Execute(sim, sim, app, fetcher)
				if res.Err != nil {
					return res.Err
				}
				stats.Add(res.Latency)
				sim.Sleep(3 * time.Second)
			}
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Printf("%-14s mean %7.2f ms   p95 %7.2f ms   over %d runs\n",
			system.String()+":", msf(stats.Mean()), msf(stats.P95()), stats.Count())
	}
	return nil
}

func msf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
