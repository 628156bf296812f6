// Hyper-parameter selection the way the paper did it: ten-fold cross
// validation over a (C, sigma^2) grid (Section V-C). The paper tuned with
// libsvm; here the distributed solver itself does the tuning, so the
// selected settings transfer directly to large-scale training runs.
//
// Run with:
//
//	go run ./examples/tuning
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/cv"
	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/sparse"
)

func main() {
	ds := dataset.MustGenerate("a9a", 0.04) // ~1300 samples of the a9a stand-in
	fmt.Printf("tuning on %s stand-in: %d samples (Table III says C=%g, sigma^2=%g)\n\n",
		ds.Name, ds.Train(), ds.C, ds.Sigma2)

	splits, err := cv.StratifiedKFold(ds.Y, 5, 1) // 5-fold keeps the demo quick
	if err != nil {
		log.Fatal(err)
	}

	trainAt := func(c, s2 float64) cv.TrainFunc {
		return func(x *sparse.Matrix, y []float64) (*model.Model, error) {
			m, _, err := core.TrainParallel(x, y, 2, core.Config{
				Kernel: kernel.FromSigma2(s2), C: c, Eps: 1e-2, Heuristic: core.Multi5pc,
			})
			return m, err
		}
	}

	cs := []float64{1, 8, 32}
	sigma2s := []float64{8, 64, 256}
	start := time.Now()
	points, best, err := cv.GridSearch(ds.X, ds.Y, cs, sigma2s, splits, trainAt)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%8s %9s %12s %8s\n", "C", "sigma^2", "CV acc (%)", "std")
	for _, pt := range points {
		mark := ""
		if pt.C == best.C && pt.Sigma2 == best.Sigma2 {
			mark = "  <- selected"
		}
		fmt.Printf("%8g %9g %12.2f %8.2f%s\n", pt.C, pt.Sigma2, pt.Result.Mean, pt.Result.Std, mark)
	}
	fmt.Printf("\n%d grid points x %d folds in %v\n", len(points), len(splits), time.Since(start).Round(time.Millisecond))

	// Retrain at the selected point on the full training split and check
	// against the held-out test set.
	m, _, err := core.TrainParallel(ds.X, ds.Y, 4, core.Config{
		Kernel: kernel.FromSigma2(best.Sigma2), C: best.C, Eps: 1e-3, Heuristic: core.Multi5pc,
	})
	if err != nil {
		log.Fatal(err)
	}
	metrics, err := m.Evaluate(ds.TestX, ds.TestY)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("final model at C=%g sigma^2=%g: %.2f%% on the %d-sample test split\n",
		best.C, best.Sigma2, metrics.Accuracy, metrics.Total)
}
