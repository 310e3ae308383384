// Package experiments reproduces every table and figure of the paper's
// evaluation. Each experiment builds the necessary testbeds on the
// virtual-clock simulator, replays the §V-A workload, and renders a text
// table next to the paper's published values so shape deviations are
// visible at a glance. cmd/apebench is the CLI front end.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// RunConfig scales an experiment run.
type RunConfig struct {
	// Scale multiplies workload durations; 1.0 reproduces the paper's
	// one-hour runs, benchmarks use smaller values. Zero means 1.0.
	Scale float64
	// Seed makes runs reproducible.
	Seed int64
}

func (c RunConfig) scale() float64 {
	if c.Scale <= 0 {
		return 1
	}
	return c.Scale
}

// workloadDuration returns the paper's one-hour run scaled.
func (c RunConfig) workloadDuration() time.Duration {
	return time.Duration(float64(time.Hour) * c.scale())
}

// Result is one experiment's rendered outcome.
type Result struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Format renders the result as an aligned text table.
func (r *Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, note := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", note)
	}
	return b.String()
}

// Experiment is one registered table/figure reproduction.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg RunConfig) (*Result, error)
}

// registry holds every experiment keyed by ID.
var registry = map[string]Experiment{}

func register(e Experiment) {
	registry[e.ID] = e
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[strings.ToLower(id)]
	return e, ok
}

// All returns every experiment in a stable order.
func All() []Experiment {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return orderKey(ids[i]) < orderKey(ids[j]) })
	out := make([]Experiment, 0, len(ids))
	for _, id := range ids {
		out = append(out, registry[id])
	}
	return out
}

// orderKey sorts experiments in paper order (tables and figures
// interleaved the way the evaluation presents them).
func orderKey(id string) string {
	order := map[string]string{
		"table1": "01", "table2": "02", "fig2": "03",
		"fig11a": "04", "fig11b": "05", "fig11c": "06",
		"table4": "07", "table5": "08", "table6": "09",
		"fig12": "10", "fig13a": "11", "fig13b": "12", "fig13c": "13",
		"fig14": "14", "table7": "15", "coherence": "16",
		"fleet-health": "17", "coop": "18", "fleet-storm": "19",
		"explain": "20", "ablations": "21",
	}
	if k, ok := order[id]; ok {
		return k
	}
	return "99" + id
}

// ms renders a duration in milliseconds with two decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
}

// ratio renders a hit ratio with three decimals.
func ratio(v float64) string { return fmt.Sprintf("%.3f", v) }
