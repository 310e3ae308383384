package experiments

import "testing"

// TestAblationsShape pins the ablations that have a direction: the
// dummy-IP short circuit cuts lookups by more than 3x, dependency
// prefetch raises the hit ratio, and PACM beats LRU on both the all- and
// the high-priority hit ratio. The fairness bound and GDSF are reported,
// not ordered.
func TestAblationsShape(t *testing.T) {
	res, err := mustRun(t, "ablations")
	if err != nil {
		t.Fatal(err)
	}
	cell := func(ablation, variant string, col int) float64 {
		for _, row := range res.Rows {
			if row[0] == ablation && row[1] == variant {
				return numericCell(t, row[col])
			}
		}
		t.Fatalf("row %s/%s missing", ablation, variant)
		return 0
	}
	const lookup, hit, high = 2, 3, 4
	if on, off := cell("Dummy-IP short circuit", "on", lookup), cell("Dummy-IP short circuit", "off", lookup); off <= 3*on {
		t.Errorf("dummy-IP off lookup %.2f ms, want > 3x the %.2f ms with it on", off, on)
	}
	if off, on := cell("Dependency prefetch", "off", hit), cell("Dependency prefetch", "on", hit); on <= off {
		t.Errorf("prefetch on hit ratio %.3f, want above %.3f with it off", on, off)
	}
	for _, col := range []int{hit, high} {
		if pacm, lru := cell("Eviction policy", "PACM", col), cell("Eviction policy", "LRU", col); pacm <= lru {
			t.Errorf("%s: PACM %.3f, want above LRU %.3f", res.Header[col], pacm, lru)
		}
	}
}
