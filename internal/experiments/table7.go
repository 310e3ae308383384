package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func init() {
	register(Experiment{
		ID:    "table7",
		Title: "Programming effort: annotation model vs API-based model",
		Run:   runTable7,
	})
}

// table7App maps an example app to the two source variants shipped in
// examples/: the annotation-based main and the API-based alternative.
type table7App struct {
	name           string
	annotationFile string
	apiFile        string
	paperAnnLoC    int
	paperAPILoC    int
}

var table7Apps = []table7App{
	{
		name:           "MovieTrailer",
		annotationFile: "examples/movietrailer/main.go",
		apiFile:        "examples/movietrailer/apibased.go",
		paperAnnLoC:    5,
		paperAPILoC:    30,
	},
	{
		name:           "VirtualHome",
		annotationFile: "examples/virtualhome/main.go",
		apiFile:        "examples/virtualhome/apibased.go",
		paperAnnLoC:    2,
		paperAPILoC:    14,
	},
}

// runTable7 counts the impacted lines of code in the repository's own
// example apps: annotation-model lines are the `cacheable:"..."` struct
// tags; API-model lines are every call site rewritten to go through the
// explicit cache API (marked `// api-impacted` in the API variants, the
// way the paper counted rewritten request invocations).
func runTable7(RunConfig) (*Result, error) {
	root, err := findRepoRoot()
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "table7",
		Title:  "Programming effort comparison (measured from this repository's examples)",
		Header: []string{"App", "Approach", "Impacted LoCs", "paper", "Extra library size", "Re-write logic"},
		Notes: []string{
			"extra library size is the client-library source footprint (stand-in for the paper's 32 kb binary delta, identical for both approaches)",
		},
	}
	libSize, err := dirSourceBytes(filepath.Join(root, "internal", "apeclient"))
	if err != nil {
		return nil, err
	}
	libKB := fmt.Sprintf("%dkb", libSize/1024)

	for _, app := range table7Apps {
		annLoC, err := countMatchingLines(filepath.Join(root, app.annotationFile), func(line string) bool {
			return strings.Contains(line, "cacheable:\"")
		})
		if err != nil {
			return nil, err
		}
		apiLoC, err := countMatchingLines(filepath.Join(root, app.apiFile), func(line string) bool {
			return strings.Contains(line, "// api-impacted")
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows,
			[]string{app.name, "APE-CACHE (annotations)", fmt.Sprintf("%d", annLoC),
				fmt.Sprintf("%d", app.paperAnnLoC), libKB, "No"},
			[]string{app.name, "API-based", fmt.Sprintf("%d", apiLoC),
				fmt.Sprintf("%d", app.paperAPILoC), libKB, "Yes"},
		)
	}
	return res, nil
}

// findRepoRoot locates the source tree from this file's compiled-in
// path, so the table renders whatever the working directory is.
func findRepoRoot() (string, error) {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return "", fmt.Errorf("table7: no source path in the binary")
	}
	root := filepath.Join(filepath.Dir(file), "..", "..")
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return "", fmt.Errorf("table7: source tree not found: %w", err)
	}
	return root, nil
}

// countMatchingLines counts lines of path satisfying match.
func countMatchingLines(path string, match func(string) bool) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("table7: %w", err)
	}
	count := 0
	for _, line := range strings.Split(string(data), "\n") {
		if match(line) {
			count++
		}
	}
	return count, nil
}

// dirSourceBytes sums the sizes of the .go files in dir (tests excluded).
func dirSourceBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("table7: %w", err)
	}
	var total int64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, fmt.Errorf("table7: %w", err)
		}
		total += info.Size()
	}
	return total, nil
}
