package bench

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/perfmodel"
)

// TestAllDatasetsCharacterization is a whole-pipeline characterization
// run: every registered dataset is trained with Original and Multi5pc,
// and the key reproduction quantities (iterations, SV fraction, mean
// active fraction, modeled time at p=64, shrinking gain, test accuracy)
// are printed side by side. It guards against dataset-generator or solver
// regressions that individual unit tests would miss.
func TestAllDatasetsCharacterization(t *testing.T) {
	if testing.Short() {
		t.Skip("trains every dataset twice; skipped with -short")
	}
	scales := map[string]float64{
		"higgs": 0.0010, "url": 0.0010, "forest": 0.0035, "realsim": 0.025,
		"mnist38": 0.03, "codrna": 0.03, "a9a": 0.06, "w7a": 0.06,
		"rcv1": 0.08, "usps": 0.15, "mushrooms": 0.12, "blobs": 0.5,
	}
	for _, name := range []string{"higgs", "url", "forest", "realsim", "mnist38", "codrna", "a9a", "w7a", "rcv1", "usps", "mushrooms", "blobs"} {
		ds := dataset.MustGenerate(name, scales[name])
		machine := perfmodel.Calibrate(kernel.FromSigma2(ds.Sigma2), ds.X, 20*time.Millisecond)
		type res struct {
			st *core.Stats
			tm float64
		}
		run := func(h core.Heuristic) res {
			cfg := core.Config{Kernel: kernel.FromSigma2(ds.Sigma2), C: ds.C, Eps: 1e-3, Heuristic: h, RecordTrace: true}
			cfg.MaxIter = 400000
			m, st, err := core.TrainParallel(ds.X, ds.Y, 1, cfg)
			if err != nil {
				t.Fatal(name, err)
			}
			_ = m
			b, err := perfmodel.Evaluate(st.Trace, 64, machine)
			if err != nil {
				t.Fatal(err)
			}
			return res{st, b.Total()}
		}
		t0 := time.Now()
		orig := run(core.Original)
		best := run(core.Multi5pc)
		el := time.Since(t0)
		cfg := core.Config{Kernel: kernel.FromSigma2(ds.Sigma2), C: ds.C, Eps: 1e-3, Heuristic: core.Multi5pc}
		m, _, err := core.TrainParallel(ds.X, ds.Y, 1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		acc := -1.0
		if ds.TestX != nil {
			mt, _ := m.Evaluate(ds.TestX, ds.TestY)
			acc = mt.Accuracy
		}
		fmt.Printf("%-10s n=%5d itersO=%7d itersB=%7d svfrac=%.2f meanact=%.2f tO(p64)=%.3f tB(p64)=%.3f gain=%.2fx testacc=%.1f wall=%v\n",
			name, ds.Train(), orig.st.Iterations, best.st.Iterations, m.SVFraction(),
			best.st.Trace.MeanActiveFraction(), orig.tm, best.tm, orig.tm/best.tm, acc, el.Round(time.Millisecond))
	}
}
