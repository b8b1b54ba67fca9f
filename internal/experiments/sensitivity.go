package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/numeric"
	"repro/internal/report"
	"repro/internal/topo"
)

// SensitivityRow reports one operating load of the sensitivity study.
type SensitivityRow struct {
	// S is the symmetric per-class rate the network actually runs at.
	S float64
	// PowerStatic is the power of the windows dimensioned once at the
	// design load.
	PowerStatic float64
	// PowerTuned is the power of the windows re-dimensioned for S.
	PowerTuned float64
	// TunedWindows are the per-load optimal windows.
	TunedWindows numeric.IntVector
	// Regret is 1 - PowerStatic/PowerTuned: the cost of not adapting.
	Regret float64
}

// Sensitivity quantifies §4.5's practicality argument: "instantaneous
// window sizing is virtually impractical, and so the window settings
// should be as insensitive to traffic fluctuations as possible". The
// 2-class network is dimensioned once at designLoad; the table reports
// how much power that static setting gives away as the actual load
// drifts across sweep, versus re-dimensioning at every load.
func Sensitivity(designLoad float64, sweep []float64, opts core.Options) (numeric.IntVector, []SensitivityRow, error) {
	design := topo.Canada2Class(designLoad, designLoad)
	res, err := core.Dimension(design, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("sensitivity design point: %w", err)
	}
	static := res.Windows
	rows := make([]SensitivityRow, 0, len(sweep))
	for _, s := range sweep {
		n := topo.Canada2Class(s, s)
		eng, err := core.NewEngine(n, opts)
		if err != nil {
			return nil, nil, fmt.Errorf("sensitivity at S=%v: %w", s, err)
		}
		atStatic, err := eng.Evaluate(static)
		if err != nil {
			return nil, nil, fmt.Errorf("sensitivity at S=%v: %w", s, err)
		}
		tuned, err := core.Dimension(n, opts)
		if err != nil {
			return nil, nil, fmt.Errorf("sensitivity tuning at S=%v: %w", s, err)
		}
		// Both settings go through the same cold evaluation, so equal
		// windows give equal power and a regret of exactly zero; the
		// search's own value comes from a warm-started solve that agrees
		// with it only to the fixed-point tolerance.
		atTuned, err := eng.Evaluate(tuned.Windows)
		if err != nil {
			return nil, nil, fmt.Errorf("sensitivity at S=%v: %w", s, err)
		}
		row := SensitivityRow{
			S:            s,
			PowerStatic:  atStatic.Power,
			PowerTuned:   atTuned.Power,
			TunedWindows: tuned.Windows,
		}
		if row.PowerTuned > 0 {
			row.Regret = 1 - row.PowerStatic/row.PowerTuned
		}
		rows = append(rows, row)
	}
	return static, rows, nil
}

// DefaultSensitivitySweep is the load range of the study (the Table 4.7
// span plus a light-traffic point).
var DefaultSensitivitySweep = []float64{5, 10, 15, 20, 25, 37.5, 50, 75}

// RenderSensitivity prints the study.
func RenderSensitivity(w io.Writer, designLoad float64, static numeric.IntVector, rows []SensitivityRow) error {
	t := &report.Table{
		Title: fmt.Sprintf(
			"Sensitivity — windows %s dimensioned at S1=S2=%g, operated across loads (2-class network)",
			report.Windows(static), designLoad),
		Headers: []string{"S1=S2", "P(static)", "P(re-tuned)", "tuned windows", "regret"},
	}
	for _, r := range rows {
		t.AddRow(report.Float(r.S, 1), report.Float(r.PowerStatic, 1),
			report.Float(r.PowerTuned, 1), report.Windows(r.TunedWindows),
			report.Float(100*r.Regret, 1)+"%")
	}
	_, err := t.WriteTo(w)
	return err
}
