// Command bench is the repository's benchmark: it starts an origin, an
// edge cache (with a coherence hub where the workload needs one) and a real
// AP in-process on 127.0.0.1 through internal/realnet, drives them with
// apeclient.Client.Get from a seeded, pre-generated op list, verifies every
// body and reports wall-clock end-to-end metrics plus, in the traced run,
// per-layer costs. See README.md in this directory.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload (default: all, rounds interleaved)")
		seed     = flag.Int64("seed", 1, "seed for catalog, popularity draws and op order")
		seconds  = flag.Float64("seconds", 30, "measured seconds per workload, split over the rounds")
		trace    = flag.Int("trace", 0, "1: run the traced/diagnostic pass and report the per-layer metrics instead")
		traceOut = flag.String("trace-out", ".bench_build/trace", "directory for the span files of the traced run")
		jsonOnly = flag.Bool("json", false, "print only the JSON result line")
		aa       = flag.Bool("aa", false, "run the gating set twice and check both agree within the BENCHMARK.json bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	specs := workloads
	if *workload != "" {
		w, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		specs = []workloadSpec{w}
	}
	run := runner{
		specs:    specs,
		seed:     *seed,
		measure:  time.Duration(*seconds * float64(time.Second)),
		traceOut: *traceOut,
		out:      os.Stdout,
		baseline: runtime.NumGoroutine(),
	}
	if *jsonOnly {
		run.out = nil
	}
	var err error
	switch {
	case *aa:
		err = run.aa()
	case *trace == 1:
		err = run.traced()
	default:
		err = run.gating()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
