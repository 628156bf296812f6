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

	// The experiment resolves engines by name at run time; the aggregator
	// guarantees every adapter has registered even if the direct imports
	// elsewhere in this package change.
	_ "repro/internal/engines"
)

// RunWSS compares first-order working-set selection (the maximal violating
// pair, the paper's setting) against libsvm's second-order max-gain rule,
// two ways in one table:
//
//   - measured: the "smo" and "smo2" engines resolved from the solver
//     registry and trained through the Engine interface, exactly the way
//     svmtrain -solver smo2 runs them — single node, wall-clock, and the
//     dual objective both engines must agree on;
//   - modeled: the distributed core solver with the SecondOrder bit off and
//     on (Original and Multi5pc heuristics, codrna), its schedule scaled to
//     the full dataset and projected to p=64 by the performance model.
func RunWSS(o Options) (*Report, error) {
	o = o.withDefaults()
	start := time.Now()
	const benchP = 64
	rep := &Report{
		ID:    "wss",
		Title: fmt.Sprintf("Working-set selection: first- vs second-order, measured (smo/smo2) and modeled (core, p=%d)", benchP),
		Header: []string{"dataset", "n", "engine", "selection", "iterations", "kernel-evals",
			"wall-clock", "modeled-t(s)", "objective", "test-acc(%)"},
	}
	selection := func(second bool) string {
		if second {
			return "second-order"
		}
		return "first-order"
	}
	// fewer labels a second-order iteration count against its first-order
	// baseline.
	fewer := func(iters, firstIters int64) string {
		return fmt.Sprintf("%d (%.2fx fewer)", iters, float64(firstIters)/float64(max(1, iters)))
	}

	for _, name := range []string{"mnist38", "codrna", "a9a"} {
		ds, _, err := loadDataset(o, name)
		if err != nil {
			return nil, err
		}
		prob := solver.Problem{X: ds.X, Y: ds.Y, Kernel: kernel.FromSigma2(ds.Sigma2)}
		// One worker keeps the iterate sequence deterministic, so the
		// iteration and kernel-eval columns are properties of the selection
		// rule, not of goroutine scheduling.
		opts := solver.Options{C: ds.C, Eps: o.Eps, Workers: 1}
		var firstIters int64
		for _, engName := range []string{"smo", "smo2"} {
			t0 := time.Now()
			res, err := solver.Train(context.Background(), engName, prob, opts)
			if err != nil {
				return nil, fmt.Errorf("wss: %s on %s: %w", engName, name, err)
			}
			elapsed := time.Since(t0)
			acc, err := res.Model.Evaluate(ds.TestX, ds.TestY)
			if err != nil {
				return nil, err
			}
			o.logf("wss %s/%s: %v, %d iterations, %d kernel evals",
				name, engName, elapsed.Round(time.Millisecond), res.Iterations, res.KernelEvals)
			iters := i64toa(res.Iterations)
			if engName == "smo" {
				firstIters = res.Iterations
			} else {
				iters = fewer(res.Iterations, firstIters)
			}
			rep.Rows = append(rep.Rows, []string{
				ds.Name, itoa(ds.Train()), engName, selection(engName == "smo2"),
				iters, fmt.Sprintf("%d", res.KernelEvals),
				elapsed.Round(time.Millisecond).String(), "-",
				fmt.Sprintf("%.6g", res.Objective), f2(acc.Accuracy),
			})
		}
	}

	ds, _, err := loadDataset(o, "codrna")
	if err != nil {
		return nil, err
	}
	machine := calibrate(o, ds)
	factor := float64(dataset.Specs["codrna"].FullTrain) / float64(ds.Train())
	for _, h := range []core.Heuristic{core.Original, core.Multi5pc} {
		var firstIters int64
		for _, second := range []bool{false, true} {
			// Native: solver.Options does not carry core's SecondOrder.
			cfg := core.Config{
				Kernel: kernel.FromSigma2(ds.Sigma2), C: ds.C, Eps: o.Eps,
				Heuristic: h, SecondOrder: second, RecordTrace: true,
			}
			m, st, err := core.TrainParallel(ds.X, ds.Y, 1, cfg)
			if err != nil {
				return nil, err
			}
			b, err := perfmodel.Evaluate(st.Trace.ScaledUp(factor), benchP, machine)
			if err != nil {
				return nil, err
			}
			acc, err := m.Evaluate(ds.TestX, ds.TestY)
			if err != nil {
				return nil, err
			}
			iters := i64toa(st.Iterations)
			if second {
				iters = fewer(st.Iterations, firstIters)
			} else {
				firstIters = st.Iterations
			}
			rep.Rows = append(rep.Rows, []string{
				ds.Name, itoa(ds.Train()), "core/" + h.Name, selection(second),
				iters, fmt.Sprintf("%d", st.KernelEvals), "-",
				fmt.Sprintf("%.3f", b.Total()), fmt.Sprintf("%.6g", st.Objective), f2(acc.Accuracy),
			})
		}
	}
	rep.Notes = append(rep.Notes,
		"smo/smo2 rows are measured on one node with one worker; core rows are modeled: the single-rank schedule scaled to the full dataset and projected to p=64",
		"both smo engines resolve from the solver registry; the dual objectives must agree within the oracle's gap tolerance (the oracle experiment checks this formally)",
		"second-order selection pays an extra kernel row per iteration (one extra Allreduce in the distributed solver) to pick the max-gain pair, trading cost per iteration for fewer iterations; the paper uses the maximal violating pair")
	rep.Took = time.Since(start)
	return rep, nil
}
