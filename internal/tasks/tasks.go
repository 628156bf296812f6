// Package tasks formulates SVM task variants — epsilon-SVR regression and
// one-class anomaly detection — as parameterized QPs over the generalized
// SMO engine (smo.TrainQP), and implements incremental warm-start updates
// that retrain a deployed model on appended data without a cold start.
//
// Both tasks reduce to the same machinery the classifier uses:
//
//   - epsilon-SVR doubles the variables (alpha_i for the +epsilon side,
//     alpha*_i for the -epsilon side) by physically stacking the data matrix
//     on itself; constraint signs are +1 for the first n rows and -1 for the
//     rest, the per-sample linear term is epsilon -/+ z_i, and the box stays
//     the uniform [0, C]. The collapsed coefficients d_i = alpha_i -
//     alpha*_i and the solver threshold assemble a model whose predictor
//     zhat(x) = sum_j d_j K(x_j, x) - Beta is exactly model.DecisionValue —
//     every predict, pack, and serve path applies unchanged.
//
//   - the one-class SVM keeps the rows, sets every constraint sign to +1, a
//     zero linear term, the nu-parameterized box [0, 1/(nu*n)], and the
//     equality target sum alpha_i = 1. SMO pair updates preserve that sum,
//     so training starts from the libsvm initial point (the first
//     floor(nu*n) samples at the bound, the fractional remainder next).
//
// Correctness is proven, not asserted: internal/oracle gains per-task
// KKT/duality-gap verifiers (SVRProblem, OneClassProblem) that recompute
// everything from scratch, and svmtrain -verify routes task models through
// them.
package tasks

import (
	"fmt"
	"math"

	"repro/internal/ckpt"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/oracle"
	"repro/internal/smo"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// smoConfig maps opts onto the generalized solver with box boxC: the shared
// smo mapping plus the constants every task solve uses (second-order
// working-set selection, the "tasks" checkpoint label). A checkpoint is
// stamped with the hash of the caller's problem (x, labels), not of the
// reshaped QP, unless opts carries one. The caller sets the QP shape and
// the warm start, which task callers give in their own dual coordinates.
func smoConfig(k kernel.Params, opts solver.Options, boxC float64, x *sparse.Matrix, labels []float64) smo.Config {
	opts.C, opts.InitialAlpha = boxC, nil
	if opts.Checkpoint != nil && opts.CheckpointFingerprint == 0 {
		opts.CheckpointFingerprint = ckpt.Fingerprint(x, labels)
	}
	cfg := smo.FromOptions(k, opts)
	cfg.SecondOrder = true
	cfg.CheckpointLabel = ckpt.SolverTasks
	return cfg
}

// result wraps a trained task model and its solver statistics; n is the
// task's sample count (half the SVR solver's doubled variables).
func result(m *model.Model, res *smo.Result, n int) solver.Result {
	return solver.Result{
		Model: m,
		Stats: res.Stats,
		Summary: fmt.Sprintf("converged=%v iterations=%d objective=%.6g SVs=%d (%.1f%% of samples)",
			res.Converged, res.Iterations, res.Objective,
			m.NumSV(), 100*float64(m.NumSV())/float64(n)),
	}
}

// TrainSVR solves the epsilon-SVR dual on (x, z) with kernel k, box
// opts.C and tube half-width opts.Task.Epsilon, and assembles a TaskSVR
// model. opts.InitialAlpha, when non-nil, warm-starts the solver from a
// collapsed dual point d (one signed entry per row, |d_i| <= C,
// sum d_i ~ 0) — the incremental-update path recovers it from a base model.
func TrainSVR(x *sparse.Matrix, z []float64, k kernel.Params, opts solver.Options) (solver.Result, error) {
	n := x.Rows()
	c, epsilon, initialCoef := opts.C, opts.Task.Epsilon, opts.InitialAlpha
	if n == 0 {
		return solver.Result{}, fmt.Errorf("tasks: empty training set")
	}
	if len(z) != n {
		return solver.Result{}, fmt.Errorf("tasks: %d targets for %d samples", len(z), n)
	}
	if c <= 0 {
		return solver.Result{}, fmt.Errorf("tasks: C must be positive, got %v", c)
	}
	if !(epsilon > 0) || math.IsInf(epsilon, 0) {
		return solver.Result{}, fmt.Errorf("tasks: epsilon must be positive and finite, got %v", epsilon)
	}
	for i, v := range z {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return solver.Result{}, fmt.Errorf("tasks: target %d is %v", i, v)
		}
	}
	if initialCoef != nil && len(initialCoef) != n {
		return solver.Result{}, fmt.Errorf("tasks: %d initial coefficients for %d samples", len(initialCoef), n)
	}

	// Doubled formulation: rows n..2n-1 are the alpha* side of the same data.
	x2 := sparse.Append(x, x)
	y2 := make([]float64, 2*n)
	p2 := make([]float64, 2*n)
	for i := 0; i < n; i++ {
		y2[i], y2[n+i] = 1, -1
		p2[i], p2[n+i] = epsilon-z[i], epsilon+z[i]
	}
	scfg := smoConfig(k, opts, c, x, z)
	scfg.LinearTerm = p2
	if initialCoef != nil {
		a0 := make([]float64, 2*n)
		for i, d := range initialCoef {
			if math.IsNaN(d) || math.Abs(d) > c*(1+1e-9) {
				return solver.Result{}, fmt.Errorf("tasks: initial coefficient %d = %v outside [-C, C]", i, d)
			}
			if d > 0 {
				a0[i] = math.Min(d, c)
			} else if d < 0 {
				a0[n+i] = math.Min(-d, c)
			}
		}
		scfg.InitialAlpha = a0
	}

	res, err := smo.TrainQP(x2, y2, scfg)
	if err != nil {
		return solver.Result{}, err
	}
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		d[i] = res.Alpha[i] - res.Alpha[n+i]
	}
	m, err := assembleModel(x, d, res.Beta, &model.Model{
		Kernel: k, C: c, Task: model.TaskSVR, Epsilon: epsilon,
		TrainSamples: n, Iterations: res.Iterations,
	})
	if err != nil {
		return solver.Result{}, err
	}
	return result(m, res, n), nil
}

// TrainOneClass solves the one-class QP on x with kernel k and outlier
// bound opts.Task.Nu, and assembles a TaskOneClass model.
// opts.InitialAlpha, when non-nil, warm-starts from an existing dual point
// (each entry in [0, 1/(nu*n)], summing to 1).
func TrainOneClass(x *sparse.Matrix, k kernel.Params, opts solver.Options) (solver.Result, error) {
	n := x.Rows()
	nu, initialAlpha := opts.Task.Nu, opts.InitialAlpha
	if n == 0 {
		return solver.Result{}, fmt.Errorf("tasks: empty training set")
	}
	if !(nu > 0) || nu > 1 {
		return solver.Result{}, fmt.Errorf("tasks: nu must be in (0, 1], got %v", nu)
	}
	boxC := 1 / (nu * float64(n))
	if initialAlpha == nil {
		initialAlpha = OneClassInitialAlpha(n, nu)
	} else if len(initialAlpha) != n {
		return solver.Result{}, fmt.Errorf("tasks: %d initial alphas for %d samples", len(initialAlpha), n)
	}

	y := make([]float64, n)
	for i := range y {
		y[i] = 1
	}
	scfg := smoConfig(k, opts, boxC, x, y)
	scfg.LinearTerm = make([]float64, n) // p = 0
	scfg.EqualityTarget = 1
	scfg.InitialAlpha = initialAlpha

	res, err := smo.TrainQP(x, y, scfg)
	if err != nil {
		return solver.Result{}, err
	}
	m, err := assembleModel(x, res.Alpha, res.Beta, &model.Model{
		Kernel: k, C: boxC, Task: model.TaskOneClass, Nu: nu,
		TrainSamples: n, Iterations: res.Iterations,
	})
	if err != nil {
		return solver.Result{}, err
	}
	return result(m, res, n), nil
}

// OneClassInitialAlpha is the libsvm starting point for the one-class QP:
// the first floor(nu*n) samples at the bound 1/(nu*n), the fractional
// remainder on the next sample. It satisfies both the box and the equality
// sum alpha_i = 1 exactly enough for warm-start validation.
func OneClassInitialAlpha(n int, nu float64) []float64 {
	alpha := make([]float64, n)
	boxC := 1 / (nu * float64(n))
	full := int(nu * float64(n))
	if full > n {
		full = n
	}
	for i := 0; i < full; i++ {
		alpha[i] = boxC
	}
	var sum float64
	for _, a := range alpha {
		sum += a
	}
	if rem := 1 - sum; rem > 0 && full < n {
		alpha[full] = rem
	}
	return alpha
}

// assembleModel builds a task model from the per-row coefficient vector:
// rows with nonzero coefficients become support vectors.
func assembleModel(x *sparse.Matrix, coef []float64, beta float64, m *model.Model) (*model.Model, error) {
	var svIdx []int
	for i, v := range coef {
		if v != 0 {
			svIdx = append(svIdx, i)
		}
	}
	sv, err := x.SelectRows(svIdx)
	if err != nil {
		return nil, fmt.Errorf("tasks: %w", err)
	}
	svCoef := make([]float64, len(svIdx))
	for k, i := range svIdx {
		svCoef[k] = coef[i]
	}
	m.SV = sv
	m.Coef = svCoef
	m.Beta = beta
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("tasks: assembled model invalid: %w", err)
	}
	return m, nil
}

// Update incrementally retrains a model on its original training data plus
// appended rows: the base model's dual point is recovered by content
// matching against the first base.TrainSamples rows of x, zero-extended
// over the appended rows, projected back into the (possibly shrunk)
// feasible set, and handed to the task solver as a warm start. labels are
// regression targets for TaskSVR, class labels for TaskCSVC, and ignored
// (may be nil) for TaskOneClass. The kernel and the task hyper-parameters
// (C, epsilon, nu) come from the base model; opts supplies the solver knobs
// and its own C, task parameters and warm start are ignored.
//
// Checkpoints written during an update are fingerprinted with
// ckpt.BindModel(dataset, base.ContentHash()), so a crash-resume is
// rejected unless both the appended dataset and the warm-start base model
// match.
func Update(base *model.Model, x *sparse.Matrix, labels []float64, opts solver.Options) (solver.Result, error) {
	if base == nil {
		return solver.Result{}, fmt.Errorf("tasks: nil base model")
	}
	n := x.Rows()
	nBase := base.TrainSamples
	if nBase <= 0 || nBase > n {
		return solver.Result{}, fmt.Errorf("tasks: base model trained on %d samples, update set has %d", nBase, n)
	}
	baseX, err := x.SubMatrix(0, nBase)
	if err != nil {
		return solver.Result{}, fmt.Errorf("tasks: %w", err)
	}
	if opts.Checkpoint != nil && opts.CheckpointFingerprint == 0 {
		fpLabels := labels
		if base.TaskKind() == model.TaskOneClass {
			fpLabels = make([]float64, n)
			for i := range fpLabels {
				fpLabels[i] = 1
			}
		}
		opts.CheckpointFingerprint = ckpt.BindModel(ckpt.Fingerprint(x, fpLabels), base.ContentHash())
	}
	opts.C = base.C
	opts.Task = solver.TaskOptions{Epsilon: base.Epsilon, Nu: base.Nu}

	switch base.TaskKind() {
	case model.TaskSVR:
		if len(labels) != n {
			return solver.Result{}, fmt.Errorf("tasks: %d targets for %d samples", len(labels), n)
		}
		d0, err := oracle.RecoverCoef(baseX, base)
		if err != nil {
			return solver.Result{}, fmt.Errorf("tasks: base model does not match the leading rows: %w", err)
		}
		opts.InitialAlpha = append(d0, make([]float64, n-nBase)...)
		return TrainSVR(x, labels, base.Kernel, opts)

	case model.TaskOneClass:
		a0, err := oracle.RecoverCoef(baseX, base)
		if err != nil {
			return solver.Result{}, fmt.Errorf("tasks: base model does not match the leading rows: %w", err)
		}
		a0 = append(a0, make([]float64, n-nBase)...)
		// The box shrinks from 1/(nu*nBase) to 1/(nu*n); project the warm
		// start back into the feasible set while keeping sum alpha = 1.
		projectOneClass(a0, 1/(base.Nu*float64(n)))
		opts.InitialAlpha = a0
		return TrainOneClass(x, base.Kernel, opts)

	case model.TaskCSVC:
		if len(labels) != n {
			return solver.Result{}, fmt.Errorf("tasks: %d labels for %d samples", len(labels), n)
		}
		baseY := labels[:nBase]
		a0, err := oracle.RecoverAlpha(baseX, baseY, base)
		if err != nil {
			return solver.Result{}, fmt.Errorf("tasks: base model does not match the leading rows: %w", err)
		}
		scfg := smoConfig(base.Kernel, opts, base.C, x, labels)
		scfg.InitialAlpha = append(a0, make([]float64, n-nBase)...)
		res, err := smo.Train(x, labels, scfg)
		if err != nil {
			return solver.Result{}, err
		}
		res.Model.Task = model.TaskCSVC
		return result(res.Model, res, n), nil

	default:
		return solver.Result{}, fmt.Errorf("tasks: cannot update task kind %q", base.Task)
	}
}

// projectOneClass clips alpha to the box [0, boxC] and redistributes the
// clipped mass onto entries with headroom, preserving sum alpha = 1. The
// total capacity n*boxC = 1/nu >= 1 guarantees the deficit always fits.
func projectOneClass(alpha []float64, boxC float64) {
	var deficit float64
	for i, a := range alpha {
		if a > boxC {
			deficit += a - boxC
			alpha[i] = boxC
		}
	}
	for i := range alpha {
		if deficit <= 0 {
			break
		}
		if room := boxC - alpha[i]; room > 0 {
			add := math.Min(room, deficit)
			alpha[i] += add
			deficit -= add
		}
	}
}
