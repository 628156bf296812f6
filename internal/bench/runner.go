package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/perfmodel"
	"repro/internal/solver"
	"repro/internal/trace"
)

// defaultScales are per-dataset generation scales tuned so a figure
// regenerates in a couple of minutes; Options.Scale multiplies them.
// EXPERIMENTS.md records the resulting sample counts next to the paper's.
var defaultScales = map[string]float64{
	"higgs":     0.0020,
	"url":       0.0020,
	"forest":    0.0050,
	"realsim":   0.0500,
	"mnist38":   0.0600,
	"codrna":    0.0500,
	"a9a":       0.1200,
	"w7a":       0.1200,
	"rcv1":      0.1500,
	"usps":      0.3000,
	"mushrooms": 0.2500,
	"blobs":     1.0000,
}

// loadDataset generates the synthetic stand-in for name at the harness
// scale.
func loadDataset(o Options, name string) (*dataset.Dataset, float64, error) {
	spec, err := dataset.Lookup(name)
	if err != nil {
		return nil, 0, err
	}
	scale := defaultScales[name] * o.Scale
	if scale <= 0 {
		scale = 0.01
	}
	ds, err := dataset.Generate(spec, scale)
	if err != nil {
		return nil, 0, err
	}
	o.logf("dataset %s: %d train / %d test samples (scale %.4f of %d)",
		name, ds.Train(), ds.Test(), scale, spec.FullTrain)
	return ds, scale, nil
}

// train runs a registered engine on ds's training split with the dataset's
// Gaussian kernel and C at the harness tolerance.
func train(o Options, engine string, ds *dataset.Dataset, opts solver.Options) (solver.Result, error) {
	opts.C, opts.Eps = ds.C, o.Eps
	prob := solver.Problem{X: ds.X, Y: ds.Y, Kernel: kernel.FromSigma2(ds.Sigma2)}
	return solver.Train(context.Background(), engine, prob, opts)
}

// baselineResult is one timed libsvm-enhanced run.
type baselineResult struct {
	res     solver.Result
	elapsed time.Duration
}

// runBaseline trains libsvm-enhanced (the smo engine): kernel cache enabled
// (the paper grants it a node's entire memory), shrinking on, the given
// worker count. The recorded trace drives the full-scale baseline model.
func runBaseline(o Options, ds *dataset.Dataset, workers int) (*baselineResult, error) {
	start := time.Now()
	res, err := train(o, "smo", ds, solver.Options{Workers: workers, RecordTrace: true})
	if err != nil {
		return nil, fmt.Errorf("baseline on %s: %w", ds.Name, err)
	}
	elapsed := time.Since(start)
	o.logf("baseline %s (%d workers): %v, %d iterations, %d SVs",
		ds.Name, workers, elapsed.Round(time.Millisecond), res.Iterations, res.Model.NumSV())
	return &baselineResult{res: res, elapsed: elapsed}, nil
}

// runTraced executes the distributed solver once (on one rank — the
// iterate sequence is p-independent) and records the trace.
func runTraced(o Options, ds *dataset.Dataset, h core.Heuristic) (*solver.Result, error) {
	start := time.Now()
	res, err := train(o, "core", ds, solver.Options{Heuristic: h.Name, RecordTrace: true})
	if err != nil {
		return nil, fmt.Errorf("traced run %s/%s: %w", ds.Name, h.Name, err)
	}
	o.logf("traced %s/%s: %v, %d iterations, %d shrink events, %d recons, %d SVs",
		ds.Name, h.Name, time.Since(start).Round(time.Millisecond),
		res.Iterations, res.ShrinkEvents, res.Reconstructions, res.Model.NumSV())
	return &res, nil
}

// calibrate builds the modeled machine for a dataset.
func calibrate(o Options, ds *dataset.Dataset) perfmodel.Machine {
	m := perfmodel.Calibrate(kernel.FromSigma2(ds.Sigma2), ds.X, 30*time.Millisecond)
	o.logf("calibrated %s: lambda = %.1f ns/eval, row = %.0f bytes",
		ds.Name, m.Lambda*1e9, m.RowBytes)
	return m
}

// extrapolation bundles the full-scale evaluation inputs for one dataset:
// the scale-up factor from the generated size to the paper's size, the
// machine model, and the modeled full-scale baseline time.
type extrapolation struct {
	factor   float64
	machine  perfmodel.Machine
	workers  int
	baseline float64 // modeled baseline seconds at full scale
}

// newExtrapolation prepares full-scale evaluation: the traces recorded on
// the scaled-down dataset have their population counts multiplied up to
// the published dataset size, so the per-iteration compute/communication
// balance — which sets the shape of every scaling figure — matches the
// paper's setup. The baseline is modeled from its own recorded schedule
// with the same calibrated lambda (uncached: a full-size kernel cache
// cannot fit, per the paper's Section III-A2).
func newExtrapolation(o Options, ds *dataset.Dataset, base *baselineResult, workers int) (extrapolation, error) {
	spec := dataset.Specs[ds.Name]
	factor := float64(spec.FullTrain) / float64(ds.Train())
	machine := calibrate(o, ds)
	baseTime, err := perfmodel.EvaluateBaseline(base.res.Trace.ScaledUp(factor), workers, machine)
	if err != nil {
		return extrapolation{}, err
	}
	o.logf("extrapolation %s: factor %.0fx, modeled baseline (%d workers, full scale) %.1fs",
		ds.Name, factor, workers, baseTime)
	return extrapolation{factor: factor, machine: machine, workers: workers, baseline: baseTime}, nil
}

// modeledSpeedup returns modeled_baseline / modeled_time(p), both at full
// dataset scale.
func (e extrapolation) modeledSpeedup(tr *trace.Trace, p int) (float64, perfmodel.Breakdown, error) {
	b, err := perfmodel.Evaluate(tr.ScaledUp(e.factor), p, e.machine)
	if err != nil {
		return 0, b, err
	}
	return e.baseline / b.Total(), b, nil
}

// heuristicTriple bundles the figures' three bars.
type heuristicTriple struct {
	def, worst, best *solver.Result
}

// runTriple executes Original, Shrinking(Worst)=Single50pc and
// Shrinking(Best)=Multi5pc — the paper reports Multi5pc as best and
// Single50pc as worst on every dataset.
func runTriple(o Options, ds *dataset.Dataset) (heuristicTriple, error) {
	var t heuristicTriple
	var err error
	if t.def, err = runTraced(o, ds, core.Original); err != nil {
		return t, err
	}
	if t.worst, err = runTraced(o, ds, core.Single50pc); err != nil {
		return t, err
	}
	if t.best, err = runTraced(o, ds, core.Multi5pc); err != nil {
		return t, err
	}
	return t, nil
}
