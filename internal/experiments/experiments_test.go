package experiments

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// tinyScale keeps the smoke runs fast (≈2 virtual minutes of workload).
const tinyScale = 0.034

func TestRegistryIsComplete(t *testing.T) {
	want := []string{
		"table1", "table2", "fig2",
		"fig11a", "fig11b", "fig11c",
		"table4", "table5", "table6",
		"fig12", "fig13a", "fig13b", "fig13c",
		"fig14", "table7", "coherence",
		"fleet-health", "coop", "fleet-storm", "explain", "ablations",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("All()[%d] = %s, want %s (paper order)", i, all[i].ID, id)
		}
		if _, ok := ByID(id); !ok {
			t.Errorf("ByID(%q) missing", id)
		}
		if _, ok := ByID(strings.ToUpper(id)); !ok {
			t.Errorf("ByID is not case-insensitive for %q", id)
		}
	}
	if _, ok := ByID("nonexistent"); ok {
		t.Error("ByID accepted an unknown id")
	}
}

func TestResultFormatAligns(t *testing.T) {
	r := &Result{
		ID:     "x",
		Title:  "demo",
		Header: []string{"A", "LongHeader"},
		Rows:   [][]string{{"value-longer-than-header", "1"}},
		Notes:  []string{"a note"},
	}
	out := r.Format()
	for _, want := range []string{"=== x: demo ===", "LongHeader", "value-longer-than-header", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q in:\n%s", want, out)
		}
	}
}

// numericCell extracts the leading float of a cell.
func numericCell(t *testing.T, s string) float64 {
	t.Helper()
	fields := strings.Fields(s)
	if len(fields) == 0 {
		t.Fatalf("empty cell")
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

func TestTable1ReproducesShape(t *testing.T) {
	res, err := mustRun(t, "table1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Fatalf("rows = %d, want 9 (3 locations × 3 sites)", len(res.Rows))
	}
	// São Paulo / Yahoo must be the outlier in both DNS and RTT.
	spYahooDNS := numericCell(t, res.Rows[8][2])
	for i := range 8 {
		if numericCell(t, res.Rows[i][2]) >= spYahooDNS {
			t.Errorf("row %d DNS >= São Paulo Yahoo's %f", i, spYahooDNS)
		}
	}
	// Every measured value should be within 25%% of the paper's.
	for _, row := range res.Rows {
		for _, pair := range [][2]int{{2, 3}, {4, 5}, {6, 7}} {
			got := numericCell(t, row[pair[0]])
			paper := numericCell(t, row[pair[1]])
			if got < paper*0.75 || got > paper*1.25 {
				t.Errorf("%s/%s: measured %f vs paper %f beyond ±25%%", row[0], row[1], got, paper)
			}
		}
	}
}

func TestTable2MatchesTargets(t *testing.T) {
	res, err := mustRun(t, "table2")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[1][1]; !strings.HasPrefix(got, "14261 ") {
		t.Errorf("low packets = %q", got)
	}
	if got := res.Rows[2][2]; !strings.HasPrefix(got, "40686 ") {
		t.Errorf("high flows = %q", got)
	}
}

func TestFig2StaysWithinHeadroom(t *testing.T) {
	res, err := mustRun(t, "fig2")
	if err != nil {
		t.Fatal(err)
	}
	highCPUMax := numericCell(t, res.Rows[1][2])
	highMemMax := numericCell(t, res.Rows[1][4])
	if highCPUMax >= 50 {
		t.Errorf("high CPU max %f, paper says < 50%%", highCPUMax)
	}
	if highMemMax >= 128 {
		t.Errorf("high mem max %f MB, paper says < half of 256 MB", highMemMax)
	}
}

func TestFig11bOrdering(t *testing.T) {
	res, err := mustRun(t, "fig11b")
	if err != nil {
		t.Fatal(err)
	}
	dnsCache := numericCell(t, res.Rows[0][1])
	hit := numericCell(t, res.Rows[1][1])
	miss := numericCell(t, res.Rows[2][1])
	two := numericCell(t, res.Rows[3][1])
	if dnsCache < hit {
		t.Errorf("DNS-Cache (%f) cheaper than a plain hit (%f)?", dnsCache, hit)
	}
	if dnsCache-hit > 0.2 {
		t.Errorf("DNS-Cache overhead %f ms over a hit, paper says ≈0.02", dnsCache-hit)
	}
	if miss < 3*hit {
		t.Errorf("recursive miss (%f) should dwarf a hit (%f)", miss, hit)
	}
	if two < dnsCache+hit*0.8 {
		t.Errorf("two standalone queries (%f) should cost ≈ hit + cache query", two)
	}
}

func TestSweepExperimentsProduceOrderedSystems(t *testing.T) {
	// One shared tiny-scale check over the latency sweep: APE-CACHE must
	// beat Edge Cache at every point, Wi-Cache in between on lookups.
	res, err := mustRun(t, "fig13c")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		ape := numericCell(t, row[1])
		edge := numericCell(t, row[4])
		if ape >= edge {
			t.Errorf("%s: APE-CACHE %f >= Edge Cache %f", row[0], ape, edge)
		}
	}
}

func TestHitRatioTablesShapes(t *testing.T) {
	res, err := mustRun(t, "table6")
	if err != nil {
		t.Fatal(err)
	}
	first := numericCell(t, res.Rows[0][1])
	last := numericCell(t, res.Rows[len(res.Rows)-1][1])
	// At tiny scale the cold-start misses weigh heavily; at full scale
	// this row reaches ≈0.96 (see EXPERIMENTS.md).
	if first < 0.8 {
		t.Errorf("5-app hit ratio = %f, want high (everything fits)", first)
	}
	if last >= first {
		t.Errorf("hit ratio should degrade with app quantity: %f -> %f", first, last)
	}
	// PACM-High >= PACM-Avg on the most contended row.
	lastRow := res.Rows[len(res.Rows)-1]
	if numericCell(t, lastRow[2]) < numericCell(t, lastRow[1]) {
		t.Errorf("PACM-High (%s) below PACM-Avg (%s) under contention", lastRow[2], lastRow[1])
	}
}

func TestFig14OverheadWithinPaperBounds(t *testing.T) {
	res, err := mustRun(t, "fig14")
	if err != nil {
		t.Fatal(err)
	}
	overheadRow := res.Rows[2]
	cpu := numericCell(t, strings.TrimPrefix(overheadRow[1], "+"))
	mem := numericCell(t, strings.TrimPrefix(overheadRow[3], "+"))
	if cpu > 6 {
		t.Errorf("CPU overhead %f%%, paper bound is ~6%%", cpu)
	}
	if mem > 14 {
		t.Errorf("memory overhead %f MB, paper bound is ~13 MB", mem)
	}
}

func TestTable7CountsEffort(t *testing.T) {
	res, err := mustRun(t, "table7")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	for i := 0; i < len(res.Rows); i += 2 {
		ann := numericCell(t, res.Rows[i][2])
		api := numericCell(t, res.Rows[i+1][2])
		if ann <= 0 || api <= 0 {
			t.Errorf("%s: zero counted LoC (ann=%f api=%f)", res.Rows[i][0], ann, api)
		}
		if api <= ann {
			t.Errorf("%s: API model (%f) should impact more LoC than annotations (%f)",
				res.Rows[i][0], api, ann)
		}
	}
}

// TestTable7RunsOutsideTheRepository renders table7 from a working
// directory outside the source tree: the example sources are found from
// the package's own path, not by walking up from the working directory.
func TestTable7RunsOutsideTheRepository(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "table7.golden"))
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(t.TempDir())
	res, err := mustRun(t, "table7")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Format(); got != string(want) {
		t.Errorf("table7 outside the repository:\n%s\nwant:\n%s", got, want)
	}
}

func TestCoherenceSweepSeparatesModes(t *testing.T) {
	res, err := mustRun(t, "coherence")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (TTL-only, Invalidate, SWR)", len(res.Rows))
	}
	purges := numericCell(t, res.Rows[0][1])
	if purges == 0 {
		t.Fatal("no purges published")
	}
	ttlStalePerPurge := numericCell(t, res.Rows[0][4])
	invStale := numericCell(t, res.Rows[1][3])
	swrStalePerPurge := numericCell(t, res.Rows[2][4])
	// TTL-only keeps serving the old bytes until the TTL runs out.
	if ttlStalePerPurge <= 1 {
		t.Errorf("TTL-only stale/purge = %f, want well above 1", ttlStalePerPurge)
	}
	// Push invalidation never serves stale; SWR at most once per purge.
	if invStale != 0 {
		t.Errorf("Invalidate served %f stale responses, want 0", invStale)
	}
	if swrStalePerPurge > 1 {
		t.Errorf("SWR stale/purge = %f, want <= 1", swrStalePerPurge)
	}
	// SWR's single stale serve keeps the hit, so its ratio must not fall
	// below push invalidation's (which pays a miss per purge).
	invHit := numericCell(t, res.Rows[1][5])
	swrHit := numericCell(t, res.Rows[2][5])
	if swrHit < invHit {
		t.Errorf("SWR hit ratio %f below Invalidate's %f", swrHit, invHit)
	}
}

// TestFleetHealthBrownoutFiresAndResolves is the fleet-smoke gate: the
// 16-AP brownout scenario must fire an SLO burn-rate alert for the
// degraded AP during the fault and resolve it after recovery.
func TestFleetHealthBrownoutFiresAndResolves(t *testing.T) {
	res, err := mustRun(t, "fleet-health")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (warm, brownout, recovered)", len(res.Rows))
	}
	warmFiring := numericCell(t, res.Rows[0][4])
	brownoutMin := numericCell(t, res.Rows[1][1])
	brownoutFiring := numericCell(t, res.Rows[1][4])
	if warmFiring != 0 {
		t.Errorf("alerts firing on a healthy fleet: %s", res.Rows[0][5])
	}
	if brownoutFiring == 0 {
		t.Error("no alert firing during the brownout")
	}
	if warmMin := numericCell(t, res.Rows[0][1]); brownoutMin >= warmMin {
		t.Errorf("brownout min score %f did not drop below warm %f", brownoutMin, warmMin)
	}
	fired, resolved := FleetAlertOutcome(res)
	if !fired {
		t.Error("no fire transition recorded for the browned-out AP")
	}
	if !resolved {
		t.Error("no resolve transition recorded for the browned-out AP")
	}
}

// TestEveryExperimentRunsAndProducesRows is the safety net: every
// registered experiment must complete without error at tiny scale, yield
// a non-empty table, and render exactly its testdata/<id>.golden (run
// memoization keeps this cheap after the targeted tests above). The
// goldens are the regression fence: a change that is meant to leave the
// simulator's behaviour alone must leave every rendering byte-identical.
func TestEveryExperimentRunsAndProducesRows(t *testing.T) {
	for _, e := range All() {
		res, err := e.Run(RunConfig{Scale: tinyScale, Seed: 1})
		if err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		if len(res.Rows) == 0 {
			t.Errorf("%s: no rows", e.ID)
		}
		if len(res.Header) == 0 {
			t.Errorf("%s: no header", e.ID)
		}
		for ri, row := range res.Rows {
			if len(row) != len(res.Header) {
				t.Errorf("%s row %d has %d cells for %d headers", e.ID, ri, len(row), len(res.Header))
			}
		}
		checkGolden(t, e.ID, res.Format())
	}
}

// checkGolden compares one experiment's rendering with its golden file,
// reporting the first differing line and logging the full rendering.
func checkGolden(t *testing.T, id, got string) {
	t.Helper()
	path := filepath.Join("testdata", id+".golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Errorf("%s: %v", id, err)
		return
	}
	if got == string(want) {
		return
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("%s differs from %s at line %d:\n got: %q\nwant: %q", id, path, i+1, g, w)
			break
		}
	}
	t.Logf("%s full rendering:\n%s", id, got)
}

// mustRun executes one experiment at tiny scale.
func mustRun(t *testing.T, id string) (*Result, error) {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("unknown experiment %s", id)
	}
	start := time.Now()
	res, err := e.Run(RunConfig{Scale: tinyScale, Seed: 1})
	if err == nil {
		t.Logf("%s ran in %v", id, time.Since(start).Round(time.Millisecond))
	}
	return res, err
}
