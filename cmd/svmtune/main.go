// Command svmtune selects hyper-parameters by k-fold cross validation over
// a (C, sigma^2) grid — the workflow the paper used to produce its
// Table III settings.
//
//	svmtune -data train.libsvm -folds 10
//	svmtune -dataset a9a -dataset-scale 0.05 -folds 5 -c-grid 1,10,32 -sigma2-grid 4,25,64
//
// The -solver flag accepts any registered classifier engine (svmtrain
// -list-solvers prints the table); each fold trains through the selected
// engine. With a linear-only engine the grid collapses to C only: the
// linear fast path has no kernel width, so sigma^2 is skipped and
// -sigma2-grid is rejected by the shared capability check to keep the
// search honest:
//
//	svmtune -dataset rcv1 -dataset-scale 0.05 -solver linear -c-grid 0.5,1,4,10
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/cv"
	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/linear"
	"repro/internal/model"
	"repro/internal/solver"
	"repro/internal/sparse"

	_ "repro/internal/engines"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "svmtune:", err)
		os.Exit(1)
	}
}

// run parses args, cross-validates every grid point and prints the table
// and the selected setting to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("svmtune", flag.ContinueOnError)
	var (
		dataPath   = fs.String("data", "", "training data in libsvm format")
		dsName     = fs.String("dataset", "", "built-in synthetic dataset instead of -data")
		dsScale    = fs.Float64("dataset-scale", 0.01, "scale for -dataset generation")
		folds      = fs.Int("folds", 10, "cross-validation folds (the paper used 10)")
		seed       = fs.Int64("seed", 1, "fold-shuffle seed")
		cGrid      = fs.String("c-grid", "", "comma-separated C values (default libsvm-style 2^-1..2^7)")
		sigma2Grid = fs.String("sigma2-grid", "", "comma-separated sigma^2 values (default 2^-1..2^7)")
		p          = fs.Int("p", 4, "ranks per training run (distributed engines)")
		heuristic  = fs.String("heuristic", "Multi5pc", "shrinking heuristic (heuristic-capable engines)")
		eps        = fs.Float64("eps", 1e-3, "tolerance epsilon")
		solverSel  = fs.String("solver", "core", "registered solver engine per training run; kernel engines tune (C, sigma^2), linear-only engines tune C (svmtrain -list-solvers prints the table)")
		linVariant = fs.String("linear-variant", "dcd", `linear solver variant: "dcd" or "miso" (linear-only engines)`)
		linEpochs  = fs.Int("linear-epochs", 0, "linear solver epoch cap per fold (0 = variant default)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	flagWasSet := func(name string) bool { return set[name] }

	// Resolve the engine and validate engine-conditional flags before
	// loading data so a typo fails fast. The rule table is shared with
	// svmtrain, so the two commands cannot drift apart.
	eng, err := solver.Lookup(*solverSel)
	if err != nil {
		return fmt.Errorf("unknown -solver %q (registered: %s)", *solverSel, strings.Join(solver.Names(), ", "))
	}
	caps := eng.Capabilities()
	if !caps.Has(solver.CapClassify) {
		return fmt.Errorf("-solver %s does not train binary classifiers (classifier engines: %s)",
			eng.Name(), strings.Join(solver.WithCapability(solver.CapClassify), ", "))
	}
	if err := solver.CheckFlags(eng, flagWasSet, solver.TuneFlagRules); err != nil {
		return err
	}
	isLinear := !caps.Has(solver.CapKernels)
	var linVar linear.Variant
	if caps.Has(solver.CapLinearVariants) {
		if linVar, err = linear.ParseVariant(*linVariant); err != nil {
			return err
		}
	}
	if caps.Has(solver.CapHeuristics) {
		if _, err := core.HeuristicByName(*heuristic); err != nil {
			return err
		}
	}

	var x *sparse.Matrix
	var y []float64
	switch {
	case *dataPath != "":
		var err error
		x, y, err = dataset.LoadLibsvmFile(*dataPath)
		if err != nil {
			return err
		}
	case *dsName != "":
		spec, err := dataset.Lookup(*dsName)
		if err != nil {
			return err
		}
		ds, err := dataset.Generate(spec, *dsScale)
		if err != nil {
			return err
		}
		x, y = ds.X, ds.Y
	default:
		return fmt.Errorf("one of -data or -dataset is required")
	}

	cs, err := parseGrid(*cGrid, cv.LogGrid(2, -1, 7, 2))
	if err != nil {
		return fmt.Errorf("c-grid: %w", err)
	}
	sigma2s, err := parseGrid(*sigma2Grid, cv.LogGrid(2, -1, 7, 2))
	if err != nil {
		return fmt.Errorf("sigma2-grid: %w", err)
	}
	if isLinear {
		// A linear-only engine has a one-dimensional grid: C. A single
		// placeholder sigma^2 keeps GridSearch's shape without multiplying
		// the fold count by kernel widths that do not exist.
		sigma2s = []float64{0}
	}
	splits, err := cv.StratifiedKFold(y, *folds, *seed)
	if err != nil {
		return err
	}

	// Per grid point the fold trainer is the selected engine with that
	// point's (C, sigma^2); capability-gated options follow the same rules
	// as svmtrain, so a tuned setting reproduces exactly under svmtrain.
	opts := solver.Options{
		Eps: *eps, Seed: *seed,
		Linear: solver.LinearOptions{Variant: *linVariant, MaxEpochs: *linEpochs},
	}
	if caps.Has(solver.CapHeuristics) {
		opts.Heuristic = *heuristic
	}
	if caps.Has(solver.CapDistributed) {
		opts.P = *p
	}
	trainAt := func(c, s2 float64) cv.TrainFunc {
		return func(fx *sparse.Matrix, fy []float64) (*model.Model, error) {
			popts := opts
			popts.C = c
			kp := kernel.Params{Type: kernel.Linear}
			if !isLinear {
				kp = kernel.FromSigma2(s2)
			}
			res, err := eng.Train(context.Background(), solver.Problem{X: fx, Y: fy, Kernel: kp}, popts)
			if err != nil {
				return nil, err
			}
			return res.Model, nil
		}
	}

	if isLinear {
		fmt.Fprintf(stdout, "grid search (-solver %s, variant %s): %d C values, %d-fold CV on %d samples\n",
			eng.Name(), linVar, len(cs), *folds, x.Rows())
	} else {
		fmt.Fprintf(stdout, "grid search: %d C values x %d sigma^2 values, %d-fold CV on %d samples\n",
			len(cs), len(sigma2s), *folds, x.Rows())
	}
	points, best, err := cv.GridSearch(x, y, cs, sigma2s, splits, trainAt)
	if err != nil {
		return err
	}
	if isLinear {
		fmt.Fprintf(stdout, "%10s %12s %10s\n", "C", "mean-acc(%)", "std")
		for _, pt := range points {
			marker := ""
			if pt.C == best.C {
				marker = "  <- best"
			}
			fmt.Fprintf(stdout, "%10g %12.2f %10.2f%s\n", pt.C, pt.Result.Mean, pt.Result.Std, marker)
		}
		fmt.Fprintf(stdout, "\nselected: -solver %s -c %g (CV accuracy %.2f%% +/- %.2f)\n",
			eng.Name(), best.C, best.Result.Mean, best.Result.Std)
		return nil
	}
	fmt.Fprintf(stdout, "%10s %10s %12s %10s\n", "C", "sigma^2", "mean-acc(%)", "std")
	for _, pt := range points {
		marker := ""
		if pt.C == best.C && pt.Sigma2 == best.Sigma2 {
			marker = "  <- best"
		}
		fmt.Fprintf(stdout, "%10g %10g %12.2f %10.2f%s\n", pt.C, pt.Sigma2, pt.Result.Mean, pt.Result.Std, marker)
	}
	fmt.Fprintf(stdout, "\nselected: -c %g -sigma2 %g (CV accuracy %.2f%% +/- %.2f)\n",
		best.C, best.Sigma2, best.Result.Mean, best.Result.Std)
	return nil
}

func parseGrid(s string, def []float64) ([]float64, error) {
	if s == "" {
		return def, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		if v <= 0 {
			return nil, fmt.Errorf("grid values must be positive, got %v", v)
		}
		out = append(out, v)
	}
	return out, nil
}
