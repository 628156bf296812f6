package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/perfmodel"
)

// figureSetup parameterizes the per-dataset speedup figures (3-7).
type figureSetup struct {
	dataset string
	minP    int
	maxP    int
}

// runSpeedupFigure regenerates one of Figures 3-7: bars of speedup over
// libsvm-enhanced for Default (no shrinking), Shrinking (Worst) and
// Shrinking (Best), across process counts.
func runSpeedupFigure(o Options, id, title string, fs figureSetup) (*Report, error) {
	o = o.withDefaults()
	start := time.Now()
	ds, scale, err := loadDataset(o, fs.dataset)
	if err != nil {
		return nil, err
	}
	base, err := runBaseline(o, ds, o.BaselineWorkers)
	if err != nil {
		return nil, err
	}
	triple, err := runTriple(o, ds)
	if err != nil {
		return nil, err
	}
	ex, err := newExtrapolation(o, ds, base, o.BaselineWorkers)
	if err != nil {
		return nil, err
	}

	rep := &Report{
		ID:    id,
		Title: title,
		Header: []string{"procs", "speedup(Default)", "speedup(Shrink-Worst)", "speedup(Shrink-Best)",
			"t(Default)s", "t(Best)s"},
		Took: 0,
	}
	for _, p := range perfmodel.PowersOfTwo(fs.minP, fs.maxP) {
		sd, bd, err := ex.modeledSpeedup(triple.def.Trace, p)
		if err != nil {
			return nil, err
		}
		sw, _, err := ex.modeledSpeedup(triple.worst.Trace, p)
		if err != nil {
			return nil, err
		}
		sb, bb, err := ex.modeledSpeedup(triple.best.Trace, p)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{
			itoa(p), f1(sd), f1(sw), f1(sb), fmt.Sprintf("%.3f", bd.Total()), fmt.Sprintf("%.3f", bb.Total()),
		})
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("dataset %s scaled to %d samples (%.3f%% of %d); measured baseline took %v; all times above modeled at full scale (extrapolation factor %.0fx, %d baseline workers)",
			ds.Name, ds.Train(), 100*scale, dataset.Specs[fs.dataset].FullTrain,
			base.elapsed.Round(time.Millisecond), ex.factor, o.BaselineWorkers),
		fmt.Sprintf("iterations: Default %d, Worst %d, Best %d; Best shrink events %d, reconstructions %d",
			triple.def.Iterations, triple.worst.Iterations, triple.best.Iterations,
			triple.best.ShrinkEvents, triple.best.Reconstructions),
		"Shrink-Best = Multi5pc, Shrink-Worst = Single50pc (the paper's best/worst on every dataset)",
	)
	rep.Took = time.Since(start)
	return rep, nil
}

// RunFigure3 regenerates Figure 3 (UCI HIGGS, up to 4096 processes).
func RunFigure3(o Options) (*Report, error) {
	return runSpeedupFigure(o, "fig3", "UCI HIGGS: speedup vs libsvm-enhanced", figureSetup{dataset: "higgs", minP: 512, maxP: 4096})
}

// RunFigure4 regenerates Figure 4 (Offending URL, up to 4096 processes).
func RunFigure4(o Options) (*Report, error) {
	return runSpeedupFigure(o, "fig4", "Offending URL: speedup vs libsvm-enhanced", figureSetup{dataset: "url", minP: 256, maxP: 4096})
}

// RunFigure5 regenerates Figure 5 (Forest covertype, up to 1024 processes).
func RunFigure5(o Options) (*Report, error) {
	return runSpeedupFigure(o, "fig5", "Forest: speedup vs libsvm-enhanced", figureSetup{dataset: "forest", minP: 64, maxP: 1024})
}

// RunFigure6 regenerates Figure 6 (MNIST, up to 512 processes).
func RunFigure6(o Options) (*Report, error) {
	return runSpeedupFigure(o, "fig6", "MNIST: speedup vs libsvm-enhanced", figureSetup{dataset: "mnist38", minP: 32, maxP: 512})
}

// RunFigure7 regenerates Figure 7 (real-sim, up to 256 processes).
func RunFigure7(o Options) (*Report, error) {
	return runSpeedupFigure(o, "fig7", "real-sim: speedup vs libsvm-enhanced", figureSetup{dataset: "realsim", minP: 16, maxP: 256})
}

// RunFigure1 regenerates the premise of Figure 1: across datasets, only a
// small fraction of samples end up as support vectors.
func RunFigure1(o Options) (*Report, error) {
	o = o.withDefaults()
	start := time.Now()
	rep := &Report{
		ID:     "fig1",
		Title:  "Support vectors are a small fraction of the samples",
		Header: []string{"dataset", "samples", "SVs", "SV fraction", "free SVs (0<a<C)"},
	}
	for _, name := range []string{"blobs", "mnist38", "usps", "w7a"} {
		ds, _, err := loadDataset(o, name)
		if err != nil {
			return nil, err
		}
		run, err := runTraced(o, ds, core.Multi5pc)
		if err != nil {
			return nil, err
		}
		free := 0
		for _, c := range run.Model.Coef {
			if c > -ds.C && c < ds.C && c != 0 {
				free++
			}
		}
		rep.Rows = append(rep.Rows, []string{
			name, itoa(ds.Train()), itoa(run.Model.NumSV()), pct(run.Model.SVFraction()), itoa(free),
		})
	}
	rep.Notes = append(rep.Notes, "the premise behind shrinking: most samples never contribute to the boundary")
	rep.Took = time.Since(start)
	return rep, nil
}

// RunFigure8 regenerates Figure 8: the fraction of overall time spent in
// gradient reconstruction with the best heuristic (Multi5pc) on the four
// large datasets, which decreases with scale.
func RunFigure8(o Options) (*Report, error) {
	o = o.withDefaults()
	start := time.Now()
	ps := []int{64, 256, 1024, 4096}
	rep := &Report{
		ID:     "fig8",
		Title:  "Gradient reconstruction share of total time (Multi5pc)",
		Header: []string{"dataset"},
	}
	for _, p := range ps {
		rep.Header = append(rep.Header, fmt.Sprintf("p=%d", p))
	}
	for _, name := range []string{"higgs", "url", "forest", "realsim"} {
		ds, _, err := loadDataset(o, name)
		if err != nil {
			return nil, err
		}
		run, err := runTraced(o, ds, core.Multi5pc)
		if err != nil {
			return nil, err
		}
		machine := calibrate(o, ds)
		factor := float64(dataset.Specs[name].FullTrain) / float64(ds.Train())
		full := run.Trace.ScaledUp(factor)
		row := []string{name}
		for _, p := range ps {
			b, err := perfmodel.Evaluate(full, p, machine)
			if err != nil {
				return nil, err
			}
			row = append(row, pct(b.ReconFraction()))
		}
		rep.Rows = append(rep.Rows, row)
	}
	rep.Notes = append(rep.Notes, "paper: < 10% of overall time, decreasing with scale")
	rep.Took = time.Since(start)
	return rep, nil
}

// RunValidateModel cross-checks the analytic performance model against the
// runtime's executed virtual clocks at small process counts.
func RunValidateModel(o Options) (*Report, error) {
	o = o.withDefaults()
	start := time.Now()
	ds, _, err := loadDataset(o, "blobs")
	if err != nil {
		return nil, err
	}
	machine := calibrate(o, ds)
	rep := &Report{
		ID:     "validate-model",
		Title:  "Analytic model vs executed virtual makespan (blobs, Multi5pc)",
		Header: []string{"procs", "executed(s)", "modeled(s)", "ratio"},
	}
	for _, p := range []int{1, 2, 4, 8} {
		// Native: the registry has no Lambda or network time model.
		cfg := core.Config{
			Kernel: kernel.FromSigma2(ds.Sigma2), C: ds.C, Eps: o.Eps,
			Heuristic: core.Multi5pc, RecordTrace: true, Lambda: machine.Lambda,
		}
		_, st, executed, err := core.TrainParallelTimed(ds.X, ds.Y, p, cfg, machine.Net)
		if err != nil {
			return nil, err
		}
		b, err := perfmodel.Evaluate(st.Trace, p, machine)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{
			itoa(p), fmt.Sprintf("%.4f", executed), fmt.Sprintf("%.4f", b.Total()),
			f2(b.Total() / executed),
		})
	}
	rep.Notes = append(rep.Notes,
		"ratios near 1 validate using the model for the 4096-process figures",
		fmt.Sprintf("calibrated lambda = %.1f ns/eval: it is re-timed on every run and sets both columns", machine.Lambda*1e9))
	rep.Took = time.Since(start)
	return rep, nil
}
