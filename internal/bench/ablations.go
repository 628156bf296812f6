package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/perfmodel"
	"repro/internal/smo"
)

// RunAblationSubsequent compares the paper's subsequent-shrinking-threshold
// choice (the active working-set size, Section IV-A2) against reusing the
// initial threshold, across heuristics.
func RunAblationSubsequent(o Options) (*Report, error) {
	o = o.withDefaults()
	start := time.Now()
	const benchP = 64
	ds, _, err := loadDataset(o, "mnist38")
	if err != nil {
		return nil, err
	}
	machine := calibrate(o, ds)
	factor := float64(dataset.Specs["mnist38"].FullTrain) / float64(ds.Train())
	rep := &Report{
		ID:     "ablation-subsequent",
		Title:  fmt.Sprintf("Subsequent shrink threshold on %s (modeled at p=%d)", ds.Name, benchP),
		Header: []string{"heuristic", "policy", "iterations", "shrinks", "mean-active", "modeled-t(s)"},
	}
	for _, h := range []core.Heuristic{core.Multi5pc, core.Multi500, core.Single5pc} {
		for _, fixed := range []bool{false, true} {
			// Native: solver.Options does not carry SubsequentFixed.
			cfg := core.Config{
				Kernel: kernel.FromSigma2(ds.Sigma2), C: ds.C, Eps: o.Eps,
				Heuristic: h, SubsequentFixed: fixed, RecordTrace: true, DatasetName: ds.Name,
			}
			_, st, err := core.TrainParallel(ds.X, ds.Y, 1, cfg)
			if err != nil {
				return nil, err
			}
			b, err := perfmodel.Evaluate(st.Trace.ScaledUp(factor), benchP, machine)
			if err != nil {
				return nil, err
			}
			policy := "active-set size (paper)"
			if fixed {
				policy = "fixed initial"
			}
			rep.Rows = append(rep.Rows, []string{
				h.Name, policy, i64toa(st.Iterations), itoa(st.ShrinkEvents),
				pct(st.Trace.MeanActiveFraction()), fmt.Sprintf("%.3f", b.Total()),
			})
		}
	}
	rep.Notes = append(rep.Notes, "the active-set-size policy gives every surviving sample one pass to stabilize before the next shrink")
	rep.Took = time.Since(start)
	return rep, nil
}

// RunAblationSyncEps compares first-synchronization bands for the
// multi-reconstruction mode: the paper's 20*eps against synchronizing only
// at the final 2*eps.
func RunAblationSyncEps(o Options) (*Report, error) {
	o = o.withDefaults()
	start := time.Now()
	const benchP = 64
	ds, _, err := loadDataset(o, "realsim")
	if err != nil {
		return nil, err
	}
	machine := calibrate(o, ds)
	factor := float64(dataset.Specs["realsim"].FullTrain) / float64(ds.Train())
	rep := &Report{
		ID:     "ablation-synceps",
		Title:  fmt.Sprintf("First gradient sync band on %s, Multi5pc (modeled at p=%d)", ds.Name, benchP),
		Header: []string{"first-sync", "iterations", "recons", "mean-active", "modeled-t(s)"},
	}
	for _, syncFactor := range []float64{10, 5, 1} { // bands of 20*eps, 10*eps, 2*eps
		// Native: solver.Options does not carry FirstSyncFactor.
		cfg := core.Config{
			Kernel: kernel.FromSigma2(ds.Sigma2), C: ds.C, Eps: o.Eps,
			Heuristic: core.Multi5pc, FirstSyncFactor: syncFactor,
			RecordTrace: true, DatasetName: ds.Name,
		}
		_, st, err := core.TrainParallel(ds.X, ds.Y, 1, cfg)
		if err != nil {
			return nil, err
		}
		b, err := perfmodel.Evaluate(st.Trace.ScaledUp(factor), benchP, machine)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%g*eps", 2*syncFactor), i64toa(st.Iterations), itoa(st.Reconstructions),
			pct(st.Trace.MeanActiveFraction()), fmt.Sprintf("%.3f", b.Total()),
		})
	}
	rep.Notes = append(rep.Notes, "the paper chooses 20*eps so false eliminations are repaired before full convergence")
	rep.Took = time.Since(start)
	return rep, nil
}

// RunAblationCache varies the kernel-cache budget of the libsvm-enhanced
// baseline, demonstrating the Section III-A2 argument for why the
// distributed solver avoids a cache: hit rates (and the benefit) fall as
// the dataset outgrows the budget.
func RunAblationCache(o Options) (*Report, error) {
	o = o.withDefaults()
	start := time.Now()
	ds, _, err := loadDataset(o, "mnist38")
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:     "ablation-cache",
		Title:  fmt.Sprintf("Kernel-cache budget in libsvm-enhanced on %s", ds.Name),
		Header: []string{"cache", "hit-rate", "evictions", "kernel-evals", "elapsed"},
	}
	rowBytes := int64(8 * ds.Train())
	budgets := []struct {
		name  string
		bytes int64
	}{
		{"none", 0},
		{"16 rows", 16 * rowBytes},
		{"n/8 rows", int64(ds.Train()/8) * rowBytes},
		{"full", 1 << 30},
	}
	for _, b := range budgets {
		// Native: the registry reads a zero CacheBytes as its 1 GiB
		// default, so the no-cache row needs smo.Config.
		cfg := smo.Config{
			Kernel: kernel.FromSigma2(ds.Sigma2), C: ds.C, Eps: o.Eps,
			Workers: o.BaselineWorkers, CacheBytes: b.bytes, Shrinking: true,
		}
		t0 := time.Now()
		res, err := smo.Train(ds.X, ds.Y, cfg)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(t0)
		rep.Rows = append(rep.Rows, []string{
			b.name, pct(res.CacheHitRate()), fmt.Sprintf("%d", res.CacheEvictions),
			fmt.Sprintf("%d", res.KernelEvals), elapsed.Round(time.Millisecond).String(),
		})
	}
	rep.Notes = append(rep.Notes, "the distributed solver forgoes the cache entirely: Theta(N^2) space cannot scale")
	rep.Took = time.Since(start)
	return rep, nil
}
