package experiments

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestSensitivity(t *testing.T) {
	static, rows, err := Sensitivity(20, DefaultSensitivitySweep, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(DefaultSensitivitySweep) {
		t.Fatalf("got %d rows", len(rows))
	}
	if len(static) != 2 {
		t.Fatalf("static windows = %v", static)
	}
	for _, r := range rows {
		// Re-tuning can never lose to the static setting (same
		// evaluator, superset search).
		if r.PowerStatic > r.PowerTuned*1.001 {
			t.Errorf("S=%v: static %v beats tuned %v", r.S, r.PowerStatic, r.PowerTuned)
		}
		if r.Regret < -1e-6 || r.Regret > 0.5 {
			t.Errorf("S=%v: regret %v out of band", r.S, r.Regret)
		}
	}
	// The thesis's insensitivity claim: across the Table 4.7 load span
	// (within a factor ~4 of the design point) the static setting gives
	// up only a few percent.
	for _, r := range rows {
		if r.S >= 10 && r.S <= 75 && r.Regret > 0.10 {
			t.Errorf("S=%v: regret %.1f%% breaks the insensitivity claim", r.S, 100*r.Regret)
		}
	}
	var b strings.Builder
	if err := RenderSensitivity(&b, 20, static, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Sensitivity") {
		t.Error("render missing title")
	}
}

// TestSensitivityEqualWindowsZeroRegret: where re-tuning lands on the
// static windows, both powers come from one evaluation, so the regret is
// exactly zero (never a rounding-level "-0.0%").
func TestSensitivityEqualWindowsZeroRegret(t *testing.T) {
	static, rows, err := Sensitivity(20, []float64{15, 20, 25}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	equal := 0
	for _, r := range rows {
		if !slices.Equal(r.TunedWindows, static) {
			continue
		}
		equal++
		if r.Regret != 0 || r.PowerStatic != r.PowerTuned {
			t.Errorf("S=%v: windows %v equal the static ones, yet P(static) %v, P(tuned) %v, regret %v",
				r.S, r.TunedWindows, r.PowerStatic, r.PowerTuned, r.Regret)
		}
	}
	if equal == 0 {
		t.Fatal("no load re-tuned to the static windows; the design load should")
	}
	var b strings.Builder
	if err := RenderSensitivity(&b, 20, static, rows); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "-0.0%") {
		t.Errorf("rendered table shows a negative zero regret:\n%s", b.String())
	}
}
