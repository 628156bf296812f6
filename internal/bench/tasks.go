package bench

import (
	"fmt"
	"math"
	"time"

	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/oracle"
	"repro/internal/solver"
	"repro/internal/tasks"
)

// RunTasks measures the incremental-update promise of internal/tasks: a
// model trained on a base set absorbs appended rows by warm-starting from
// its recovered dual point, and must reach the cold-retrain objective
// within the oracle gap tolerance at lower wall-clock. Both the cold and
// incremental models are verified through the per-task oracle, so a row
// only reads "ok" when the solution is a proven eps-approximate optimum.
func RunTasks(o Options) (*Report, error) {
	o = o.withDefaults()
	start := time.Now()
	rep := &Report{
		ID:     "tasks",
		Title:  "Task variants: cold retrain vs incremental warm-start update at matched oracle gap",
		Header: []string{"task", "n-base", "n-full", "cold", "cold-gap", "incr", "incr-gap", "|dObj|", "obj-tol", "speedup", "status"},
	}

	nBase := int(1200 * o.Scale)
	if nBase < 100 {
		nBase = 100
	}
	nFull := nBase + nBase/20 // +5% appended rows, the incremental-batch regime
	kp := kernel.Params{Type: kernel.Gaussian, Gamma: 0.5}
	opts := solver.Options{Eps: o.Eps, CacheBytes: 1 << 28}

	type caseResult struct {
		task             string
		cold, incr       time.Duration
		coldGap, incrGap float64
		coldObj, incrObj float64
		objTol           float64
		coldRep, incrRep *oracle.Report
		verifyErr        error
	}
	var results []caseResult

	// epsilon-SVR: train on the prefix, append the suffix, compare.
	{
		const (
			c       = 10.0
			epsilon = 0.1
		)
		svr := opts
		svr.C, svr.Task.Epsilon = c, epsilon
		xFull, zFull, err := dataset.GenerateRegression(nFull, 6, 0.05, 17)
		if err != nil {
			return nil, err
		}
		xBase, err := xFull.SubMatrix(0, nBase)
		if err != nil {
			return nil, err
		}
		o.logf("tasks/svr: base %d rows, full %d rows", nBase, nFull)
		base, err := tasks.TrainSVR(xBase, zFull[:nBase], kp, svr)
		if err != nil {
			return nil, fmt.Errorf("svr base: %w", err)
		}

		t0 := time.Now()
		cold, err := tasks.TrainSVR(xFull, zFull, kp, svr)
		if err != nil {
			return nil, fmt.Errorf("svr cold: %w", err)
		}
		coldT := time.Since(t0)

		t0 = time.Now()
		incr, err := tasks.Update(base.Model, xFull, zFull, opts)
		if err != nil {
			return nil, fmt.Errorf("svr update: %w", err)
		}
		incrT := time.Since(t0)

		prob := oracle.SVRProblem{X: xFull, Z: zFull, Kernel: kp, C: c, Epsilon: epsilon, Eps: o.Eps}
		cr := caseResult{task: "epsilon_svr", cold: coldT, incr: incrT,
			coldObj: cold.Objective, incrObj: incr.Objective,
			objTol: oracle.GapTolerance(2*nFull, c, o.Eps)}
		cr.coldRep, cr.incrRep, cr.verifyErr = verifyPair(prob.VerifyModel, cold.Model, incr.Model)
		results = append(results, cr)
	}

	// One-class: the box shrinks with n, so the warm start is projected.
	{
		const nu = 0.1
		oc := opts
		oc.Task.Nu = nu
		xFull, _, err := dataset.GenerateOneClass(nFull, 6, 0.05, 17)
		if err != nil {
			return nil, err
		}
		xBase, err := xFull.SubMatrix(0, nBase)
		if err != nil {
			return nil, err
		}
		o.logf("tasks/oneclass: base %d rows, full %d rows", nBase, nFull)
		base, err := tasks.TrainOneClass(xBase, kp, oc)
		if err != nil {
			return nil, fmt.Errorf("oneclass base: %w", err)
		}

		t0 := time.Now()
		cold, err := tasks.TrainOneClass(xFull, kp, oc)
		if err != nil {
			return nil, fmt.Errorf("oneclass cold: %w", err)
		}
		coldT := time.Since(t0)

		t0 = time.Now()
		incr, err := tasks.Update(base.Model, xFull, nil, opts)
		if err != nil {
			return nil, fmt.Errorf("oneclass update: %w", err)
		}
		incrT := time.Since(t0)

		boxC := 1 / (nu * float64(nFull))
		prob := oracle.OneClassProblem{X: xFull, Kernel: kp, Nu: nu, Eps: o.Eps}
		cr := caseResult{task: "one_class", cold: coldT, incr: incrT,
			coldObj: cold.Objective, incrObj: incr.Objective,
			objTol: oracle.GapTolerance(nFull, boxC, o.Eps)}
		cr.coldRep, cr.incrRep, cr.verifyErr = verifyPair(prob.VerifyModel, cold.Model, incr.Model)
		results = append(results, cr)
	}

	fails := 0
	for _, cr := range results {
		status := "ok"
		objDiff := math.Abs(cr.coldObj - cr.incrObj)
		switch {
		case cr.verifyErr != nil:
			status, fails = "FAIL", fails+1
			rep.Notes = append(rep.Notes, fmt.Sprintf("%s verify: %v", cr.task, cr.verifyErr))
		case objDiff > cr.objTol:
			status, fails = "FAIL", fails+1
			rep.Notes = append(rep.Notes, fmt.Sprintf("%s: objective diff %.3e exceeds tolerance %.3e", cr.task, objDiff, cr.objTol))
		}
		speedup := float64(cr.cold) / float64(cr.incr)
		rep.Rows = append(rep.Rows, []string{
			cr.task, itoa(nBase), itoa(nFull),
			cr.cold.Round(time.Millisecond).String(),
			fmt.Sprintf("%.3e", cr.coldRep.DualityGap),
			cr.incr.Round(time.Millisecond).String(),
			fmt.Sprintf("%.3e", cr.incrRep.DualityGap),
			fmt.Sprintf("%.3e", objDiff),
			fmt.Sprintf("%.3e", cr.objTol),
			fmt.Sprintf("%.2fx", speedup),
			status,
		})
	}
	if fails == 0 {
		rep.Notes = append(rep.Notes,
			"both tasks: incremental update matches the cold-retrain objective within the oracle gap tolerance; both models verified eps-approximate optimal")
	}
	rep.Took = time.Since(start)
	return rep, nil
}

// verifyPair runs the oracle verifier over both models and checks each
// report, returning the first failure.
func verifyPair(verify func(*model.Model) (*oracle.Report, error), cold, incr *model.Model) (*oracle.Report, *oracle.Report, error) {
	cr, err := verify(cold)
	if err != nil {
		return nil, nil, fmt.Errorf("cold: %w", err)
	}
	if err := cr.Check(); err != nil {
		return cr, nil, fmt.Errorf("cold: %w", err)
	}
	ir, err := verify(incr)
	if err != nil {
		return cr, nil, fmt.Errorf("incremental: %w", err)
	}
	if err := ir.Check(); err != nil {
		return cr, ir, fmt.Errorf("incremental: %w", err)
	}
	return cr, ir, nil
}
