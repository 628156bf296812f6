// The paper's flagship workload: a HIGGS-like dataset (hard, dense,
// physics-style features) trained with the Default (no-shrinking)
// algorithm and the best/worst shrinking heuristics, then projected onto
// the PNNL-Cascade-class cluster model up to 4096 processes — the
// experiment behind Figure 3.
//
// Run with:
//
//	go run ./examples/higgs
//
// This trains a scaled-down HIGGS stand-in for real (a couple of minutes
// on one core), records the solver schedules, and evaluates them under
// the calibrated performance model at full 2.6M-sample scale.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/perfmodel"
	"repro/internal/trace"
)

func main() {
	const scale = 0.001 // 2600 of the paper's 2.6M samples
	ds := dataset.MustGenerate("higgs", scale)
	fmt.Printf("HIGGS stand-in: %d samples (%.2f%% of 2.6M), C=%g, sigma^2=%g\n",
		ds.Train(), 100*scale, ds.C, ds.Sigma2)

	machine := perfmodel.Calibrate(kernel.FromSigma2(ds.Sigma2), ds.X, 50*time.Millisecond)
	fmt.Printf("calibrated kernel evaluation cost: %.0f ns\n\n", machine.Lambda*1e9)

	heuristics := []core.Heuristic{core.Original, core.Single50pc, core.Multi5pc}
	traces := make(map[string]*trace.Trace)
	for _, h := range heuristics {
		cfg := core.Config{
			Kernel: kernel.FromSigma2(ds.Sigma2), C: ds.C, Eps: 1e-3,
			Heuristic: h, RecordTrace: true, DatasetName: "higgs",
		}
		start := time.Now()
		_, st, err := core.TrainParallel(ds.X, ds.Y, 1, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-11s %8d iterations, %2d shrink events, %d reconstructions, mean active %.0f%%  (%v)\n",
			h.Name, st.Iterations, st.ShrinkEvents, st.Reconstructions,
			100*st.Trace.MeanActiveFraction(), time.Since(start).Round(time.Millisecond))
		traces[h.Name] = st.Trace
	}

	// Project to the paper's cluster sizes at full dataset scale.
	factor := float64(dataset.Specs["higgs"].FullTrain) / float64(ds.Train())
	fmt.Printf("\nmodeled training time at full 2.6M-sample scale (extrapolation %.0fx):\n", factor)
	fmt.Printf("%8s %12s %12s %12s %10s\n", "procs", "Default(s)", "Worst(s)", "Best(s)", "Best gain")
	for _, p := range []int{1024, 2048, 4096} {
		var totals [3]float64
		for i, h := range heuristics {
			b, err := perfmodel.Evaluate(traces[h.Name].ScaledUp(factor), p, machine)
			if err != nil {
				log.Fatal(err)
			}
			totals[i] = b.Total()
		}
		fmt.Printf("%8d %12.1f %12.1f %12.1f %9.2fx\n",
			p, totals[0], totals[1], totals[2], totals[0]/totals[2])
	}
	fmt.Println("\npaper reference (Figure 3): shrinking best beats Default by 2.27x at 1024")
	fmt.Println("processes and 1.56x at 4096 — the gain shrinks as communication grows.")
}
