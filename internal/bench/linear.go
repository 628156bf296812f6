package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/linear"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// RunLinear measures the explicit-w linear fast path against the kernel
// engines on the sparse-text datasets (rcv1, real-sim, url shapes), where
// linear kernels are the norm and the paper's kernel machinery is pure
// overhead. All engines solve the same linear-kernel problem; wall-clock is
// measured, not modeled. The generated sets carry no test split, so each is
// cut 80/20 (rows are i.i.d. draws from the generator, making a contiguous
// holdout unbiased).
func RunLinear(o Options) (*Report, error) {
	o = o.withDefaults()
	start := time.Now()
	rep := &Report{
		ID:     "linear",
		Title:  "Linear fast path (explicit w) vs kernel engines on sparse text (measured wall-clock)",
		Header: []string{"dataset", "solver", "time", "test-acc", "speedup-vs-smo"},
	}

	for _, name := range []string{"rcv1", "realsim", "url"} {
		ds, scale, err := loadDataset(o, name)
		if err != nil {
			return nil, err
		}
		trainX, trainY, testX, testY, err := holdout(ds.X, ds.Y)
		if err != nil {
			return nil, err
		}
		var smoTime time.Duration
		addRow := func(engine string, took time.Duration, a float64) {
			speed := "1.00x"
			if engine != "smo" {
				speed = f2(smoTime.Seconds()/took.Seconds()) + "x"
			}
			rep.Rows = append(rep.Rows, []string{
				name, engine, took.Round(time.Millisecond).String(), f2(a) + "%", speed,
			})
		}

		prob := solver.Problem{X: trainX, Y: trainY, Kernel: kernel.Params{Type: kernel.Linear}}
		fit := func(engine string, opts solver.Options) (solver.Result, time.Duration, float64, error) {
			opts.C, opts.Eps = ds.C, o.Eps
			t0 := time.Now()
			res, err := solver.Train(context.Background(), engine, prob, opts)
			if err != nil {
				return res, 0, 0, fmt.Errorf("%s on %s: %w", engine, name, err)
			}
			took := time.Since(t0)
			met, err := res.Model.Evaluate(testX, testY)
			return res, took, met.Accuracy, err
		}

		// Kernel baseline 1: libsvm-enhanced with a linear kernel.
		_, smoTime, a, err := fit("smo", solver.Options{Workers: o.BaselineWorkers})
		if err != nil {
			return nil, err
		}
		addRow("smo", smoTime, a)

		// Kernel baseline 2: divide-and-conquer over the same linear kernel.
		_, dcTime, a, err := fit("dc", solver.Options{
			Heuristic: core.Multi5pc.Name, Seed: 11, DC: solver.DCOptions{Clusters: 8},
		})
		if err != nil {
			return nil, err
		}
		addRow("dcsvm", dcTime, a)

		// The fast path, both variants.
		for _, v := range []linear.Variant{linear.DCD, linear.MISO} {
			lres, lTime, a, err := fit("linear", solver.Options{Seed: 11, Linear: solver.LinearOptions{Variant: v.String()}})
			if err != nil {
				return nil, err
			}
			addRow("linear-"+v.String(), lTime, a)
			o.logf("%s linear-%s: %v (%.1fx vs smo), %s",
				name, v, lTime.Round(time.Millisecond), smoTime.Seconds()/lTime.Seconds(), lres.Summary)
		}
		o.logf("%s: %d train / %d holdout at scale %.4f", name, trainX.Rows(), testX.Rows(), scale)
	}

	rep.Notes = append(rep.Notes,
		"all engines solve the same linear-kernel problem; speedups are measured wall-clock against smo on the same split",
		"linear-dcd is dual coordinate descent (hinge), linear-miso the incremental primal (squared hinge) — accuracies may differ slightly across losses",
		"these generated sets have no published test split, so accuracy is on a held-out 20% of the generated sample")
	rep.Took = time.Since(start)
	return rep, nil
}

// holdout splits (x, y) into a leading 80% train and trailing 20% test view.
func holdout(x *sparse.Matrix, y []float64) (trainX *sparse.Matrix, trainY []float64, testX *sparse.Matrix, testY []float64, err error) {
	n := x.Rows()
	cut := n * 4 / 5
	if cut == 0 || cut == n {
		return nil, nil, nil, nil, fmt.Errorf("bench: %d samples is too few for a holdout split", n)
	}
	if trainX, err = x.RowRangeView(0, cut); err != nil {
		return nil, nil, nil, nil, err
	}
	if testX, err = x.RowRangeView(cut, n); err != nil {
		return nil, nil, nil, nil, err
	}
	return trainX, y[:cut], testX, y[cut:], nil
}
