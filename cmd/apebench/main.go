// Command apebench regenerates every table and figure of the paper's
// evaluation on the virtual-clock simulator and prints them next to the
// published values.
//
// Usage:
//
//	apebench [-scale 0.25] [-seed 1] [-list] [-json] [experiment ...]
//
// With no experiment arguments, everything runs in paper order. Scale
// multiplies the one-hour workload durations (1.0 reproduces the paper's
// full runs; smaller values trade precision for speed).
//
// apebench reports the simulator's reproductions; wall-clock performance
// of the real-socket daemons is measured by the repository benchmark
// (go run ./bench).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"apecache/internal/experiments"
)

func main() {
	scale := flag.Float64("scale", 0.25, "workload duration multiplier (1.0 = the paper's one-hour runs)")
	seed := flag.Int64("seed", 1, "random seed")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	jsonOut := flag.Bool("json", false, "emit results as a JSON array instead of text tables")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	selected := flag.Args()
	if len(selected) == 0 {
		for _, e := range experiments.All() {
			selected = append(selected, e.ID)
		}
	}

	cfg := experiments.RunConfig{Scale: *scale, Seed: *seed}
	failed := 0
	var results []jsonResult
	for _, id := range selected {
		e, ok := experiments.ByID(strings.ToLower(id))
		if !ok {
			fmt.Fprintf(os.Stderr, "apebench: unknown experiment %q (use -list)\n", id)
			failed++
			continue
		}
		start := time.Now()
		res, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "apebench: %s: %v\n", e.ID, err)
			failed++
			continue
		}
		elapsed := time.Since(start)
		if *jsonOut {
			results = append(results, jsonResult{
				ID:         res.ID,
				Title:      res.Title,
				Header:     res.Header,
				Rows:       res.Rows,
				Notes:      res.Notes,
				WallTimeMS: elapsed.Milliseconds(),
				Scale:      *scale,
				Seed:       *seed,
			})
			continue
		}
		fmt.Println(res.Format())
		fmt.Printf("(%s completed in %v wall time)\n\n", e.ID, elapsed.Round(time.Millisecond))
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintf(os.Stderr, "apebench: encode: %v\n", err)
			failed++
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// jsonResult is the machine-readable experiment record emitted by -json.
type jsonResult struct {
	ID         string     `json:"id"`
	Title      string     `json:"title"`
	Header     []string   `json:"header"`
	Rows       [][]string `json:"rows"`
	Notes      []string   `json:"notes,omitempty"`
	WallTimeMS int64      `json:"wall_time_ms"`
	Scale      float64    `json:"scale"`
	Seed       int64      `json:"seed"`
}
