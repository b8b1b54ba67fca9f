// Command paperbench regenerates the thesis's evaluation: every table and
// figure of Chapter 4.5 plus the validation and ablation studies.
//
//	paperbench -all
//	paperbench -table 4.7
//	paperbench -table 4.8
//	paperbench -table 4.12
//	paperbench -figure 4.9
//	paperbench -figure 2.1
//	paperbench -validate
//	paperbench -ablation
//
// Outputs are text tables and ASCII charts in the same layout as the
// thesis; EXPERIMENTS.md records the paper-vs-measured comparison.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	table := fs.String("table", "", "regenerate a table: 4.7, 4.8, 4.12")
	figure := fs.String("figure", "", "regenerate a figure: 4.9, 2.1")
	validate := fs.Bool("validate", false, "cross-solver validation table")
	ablation := fs.Bool("ablation", false, "WINDIM design ablation table")
	scaling := fs.Bool("scaling", false, "larger-network (10-node ARPANET mesh) study")
	robustness := fs.Bool("robustness", false, "assumption-breaking robustness study (simulated)")
	robustdim := fs.Bool("robustdim", false, "nominal vs minimax-robust window dimensioning over a scenario set")
	sensitivity := fs.Bool("sensitivity", false, "static-vs-retuned window sensitivity study")
	all := fs.Bool("all", false, "run everything")
	evaluator := fs.String("evaluator", "sigma", "candidate evaluator for the tables: sigma, schweitzer, linearizer, exact")
	workers := fs.Int("workers", 1, "parallel candidate evaluations for the dimensioning runs")
	prof := cliutil.ProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfile, err := prof.Start()
	if err != nil {
		return err
	}
	defer stopProfile()
	ev, err := core.ParseEvaluator(*evaluator)
	if err != nil {
		return err
	}
	opts := core.Options{Workers: *workers, Evaluator: ev}
	ran := false
	runIf := func(cond bool, f func() error) error {
		if !cond {
			return nil
		}
		ran = true
		if err := f(); err != nil {
			return err
		}
		fmt.Println()
		return nil
	}
	if err := runIf(*all || *table == "4.7", func() error {
		rows, err := experiments.Table47(opts)
		if err != nil {
			return err
		}
		return experiments.RenderTable47(os.Stdout, rows)
	}); err != nil {
		return err
	}
	if err := runIf(*all || *table == "4.8", func() error {
		rows, err := experiments.Table48(opts)
		if err != nil {
			return err
		}
		return experiments.RenderTable48(os.Stdout, rows)
	}); err != nil {
		return err
	}
	if err := runIf(*all || *figure == "4.9", func() error {
		series, err := experiments.Fig49(opts)
		if err != nil {
			return err
		}
		return experiments.RenderFig49(os.Stdout, series)
	}); err != nil {
		return err
	}
	if err := runIf(*all || *table == "4.12", func() error {
		rows, err := experiments.Table412(opts)
		if err != nil {
			return err
		}
		return experiments.RenderTable412(os.Stdout, rows)
	}); err != nil {
		return err
	}
	if err := runIf(*all || *figure == "2.1", func() error {
		uncontrolled, err := experiments.Fig21(experiments.Fig21Config{Window: 0, Buffers: 32, Seed: 5})
		if err != nil {
			return err
		}
		controlled, err := experiments.Fig21(experiments.Fig21Config{Window: 3, Buffers: 32, Seed: 5})
		if err != nil {
			return err
		}
		return experiments.RenderFig21(os.Stdout, uncontrolled, controlled)
	}); err != nil {
		return err
	}
	if err := runIf(*all || *validate, func() error {
		rows, err := experiments.Validate(20, 3)
		if err != nil {
			return err
		}
		return experiments.RenderValidation(os.Stdout, 20, rows)
	}); err != nil {
		return err
	}
	if err := runIf(*all || *ablation, func() error {
		s := [4]float64{6, 6, 6, 12}
		rows, err := experiments.Ablation(s)
		if err != nil {
			return err
		}
		return experiments.RenderAblation(os.Stdout, s, rows)
	}); err != nil {
		return err
	}
	if err := runIf(*all || *scaling, func() error {
		r, err := experiments.Scaling(8, 3)
		if err != nil {
			return err
		}
		return experiments.RenderScaling(os.Stdout, 8, r)
	}); err != nil {
		return err
	}
	if err := runIf(*all || *robustness, func() error {
		rows, err := experiments.Robustness(3, 3)
		if err != nil {
			return err
		}
		return experiments.RenderRobustness(os.Stdout, rows)
	}); err != nil {
		return err
	}
	if err := runIf(*all || *robustdim, func() error {
		res, err := experiments.RobustDimensioning(3, 3)
		if err != nil {
			return err
		}
		return experiments.RenderRobustDimensioning(os.Stdout, res)
	}); err != nil {
		return err
	}
	if err := runIf(*all || *sensitivity, func() error {
		static, rows, err := experiments.Sensitivity(20, experiments.DefaultSensitivitySweep, opts)
		if err != nil {
			return err
		}
		return experiments.RenderSensitivity(os.Stdout, 20, static, rows)
	}); err != nil {
		return err
	}
	if !ran {
		return fmt.Errorf("nothing selected; use -all or see -h")
	}
	return nil
}
