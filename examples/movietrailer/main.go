// Command movietrailer reproduces the paper's motivating example (Fig 3):
// the MovieTrailer app fetches a movie ID and then four concurrent detail
// objects. It runs the app's request DAG on the full simulated testbed
// under APE-CACHE and under the classic Edge Cache workflow, printing the
// app-level latency of each execution, and can also run the API-based
// programming model variant (-model=api) used in Table VII.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"apecache"
	"apecache/internal/appmodel"
	"apecache/internal/testbed"
	"apecache/internal/vclock"
	"apecache/internal/workload"
)

// movieData declares the app's five cacheable objects with struct tags —
// the annotation programming model. The five tags below are the app's
// entire APE-CACHE integration (Table VII counts these lines).
type movieData struct {
	MovieID   []byte `cacheable:"id=http://api.movietrailer.example/movieID,priority=2,ttl=30"`
	Rating    []byte `cacheable:"id=http://api.movietrailer.example/rating,priority=1,ttl=30"`
	Plot      []byte `cacheable:"id=http://api.movietrailer.example/plot,priority=1,ttl=30"`
	Cast      []byte `cacheable:"id=http://api.movietrailer.example/cast,priority=1,ttl=30"`
	Thumbnail []byte `cacheable:"id=http://api.movietrailer.example/thumbnail,priority=2,ttl=30"`
}

func main() {
	model := flag.String("model", "annotations", "programming model: annotations or api")
	runs := flag.Int("runs", 10, "number of app executions per system")
	flag.Parse()
	if err := run(*model, *runs); err != nil {
		fmt.Fprintln(os.Stderr, "movietrailer:", err)
		os.Exit(1)
	}
}

func run(model string, runs int) error {
	suite := workload.Generate(workload.GeneratorConfig{NumApps: 1, Seed: 7})
	app := suite.Apps[0] // the MovieTrailer DAG

	for _, system := range []testbed.System{testbed.SystemAPECache, testbed.SystemEdgeCache} {
		err := vclock.Simulate("movietrailer", func(sim *vclock.Sim) error {
			tb, err := testbed.New(sim, system, testbed.Config{Suite: suite, Seed: 7})
			if err != nil {
				return err
			}
			fmt.Printf("--- %s (%s model) ---\n", system, model)
			fetcher := tb.FetcherFor(app)
			if model == "api" && system == testbed.SystemAPECache {
				client, ok := fetcher.(*apecache.Client)
				if !ok {
					return fmt.Errorf("api model needs the APE-CACHE client")
				}
				return runAPIBased(sim, client, runs)
			}
			for i := 1; i <= runs; i++ {
				res := appmodel.Execute(sim, sim, app, fetcher)
				if res.Err != nil {
					return res.Err
				}
				fmt.Printf("run %2d: app-level latency %7.2f ms\n",
					i, float64(res.Latency)/float64(time.Millisecond))
				sim.Sleep(5 * time.Second)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}

	// The annotation model in action: one RegisterStruct call wires every
	// tagged field (shown here for documentation; the testbed registered
	// the same URLs from the generated catalog).
	reg := apecache.NewRegistry("MovieTrailer")
	if err := reg.RegisterStruct(&movieData{}); err != nil {
		return err
	}
	fmt.Printf("annotation model registered %d cacheable objects from struct tags\n", reg.Len())
	return nil
}
