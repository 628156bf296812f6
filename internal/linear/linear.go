// Package linear is the primal/linear fast-path solver family: SVM training
// that never forms kernel rows. Every other engine in the repository (core,
// smo, dcsvm) works in the dual with kernel evaluations — the right tool for
// Gaussian kernels, but a detour when the kernel is linear, which is exactly
// the regime of the paper's sparse text-shaped workloads (RCV1, URL,
// real-sim). There the decision function is a single hyperplane w, and a
// solver that maintains w explicitly updates it in O(nnz(x_i)) per sample
// instead of paying an O(n * nnz) kernel row per working-set step.
//
// Two variants share one Train API over solver.Options:
//
//   - DCD: LIBLINEAR-style dual coordinate descent for L2-regularized
//     L1-hinge loss (Hsieh et al., "A Dual Coordinate Descent Method for
//     Large-scale Linear SVM"). One pass updates each alpha_i by a
//     closed-form projected Newton step and folds the change into w via a
//     sparse axpy; epochs visit samples in a fresh random permutation, and
//     projected-gradient shrinking removes samples pinned at the bounds.
//   - MISO: an incremental primal surrogate-minimization solver for the
//     L2-regularized squared-hinge loss, mirroring the miso_svm_aux exemplar
//     (Mairal's MISO as shipped in the SPAMS toolbox): per-step convex
//     averaging of a per-sample surrogate with step size derived from the
//     Lipschitz constant, with a periodic duality-gap stop.
//
// Both return a model.Model carrying the dense weight vector, so prediction
// is one sparse-dense dot product — no support vectors, no kernel sweep.
// Training is deterministic in (data, options): the only randomness is the
// seeded permutation/index stream.
package linear

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// Variant selects the solver inside the family.
type Variant int

const (
	// DCD is dual coordinate descent on the L1-hinge dual (the default).
	DCD Variant = iota
	// MISO is the incremental primal squared-hinge solver.
	MISO
)

// String returns the flag-facing name of the variant.
func (v Variant) String() string {
	switch v {
	case DCD:
		return "dcd"
	case MISO:
		return "miso"
	default:
		return fmt.Sprintf("linear.Variant(%d)", int(v))
	}
}

// ParseVariant converts a flag value to a Variant.
func ParseVariant(s string) (Variant, error) {
	switch s {
	case "dcd":
		return DCD, nil
	case "miso":
		return MISO, nil
	}
	return 0, fmt.Errorf("linear: unknown variant %q (valid: dcd, miso)", s)
}

// withDefaults fills the zero-value defaults of the options the family
// reads: C is the box constraint of the hinge loss (DCD) or the weight of
// the squared-hinge loss (MISO, internally mapped to lambda = 1/(C*n)); Eps
// is the termination tolerance (DCD stops when the spread of the projected
// gradients over a full epoch drops below it, MISO when the duality gap of
// the scaled objective does), 0 meaning 1e-3; Linear.MaxEpochs bounds the
// passes over the data, 0 meaning 1000 for DCD and 500 for MISO; Seed
// drives the per-epoch permutation (DCD) or the sample index stream (MISO),
// 0 meaning 1. Equal seeds give byte-identical runs.
func withDefaults(opts solver.Options, v Variant) solver.Options {
	if opts.Eps <= 0 {
		opts.Eps = 1e-3
	}
	if opts.Linear.MaxEpochs <= 0 {
		if v == MISO {
			opts.Linear.MaxEpochs = 500
		} else {
			opts.Linear.MaxEpochs = 1000
		}
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	return opts
}

// Result carries the trained model and the solver's own account of the
// optimization, including the final primal/dual objectives so callers (and
// the oracle) can see how tight the solution is without recomputing.
type Result struct {
	Model *model.Model
	// W aliases Model.W: the trained hyperplane.
	W []float64
	// Alpha is the per-sample dual point behind W
	// (W = sum_i Alpha[i]*y[i]*x_i), feasible for the variant's dual:
	// [0, C] boxes for DCD, alpha >= 0 for MISO.
	Alpha []float64
	// Epochs is the number of passes over the (possibly shrunk) data.
	Epochs int
	// Primal is the final primal objective of the variant's problem;
	// Stats.Objective is its dual and Stats.Gap the difference (see
	// oracle.LinearProblem for the exact expressions). Stats.Iterations
	// counts coordinate/sample updates actually applied, and Converged
	// reports whether the tolerance was met within MaxEpochs.
	Primal float64
	solver.Stats
}

func validate(x sparse.RowMatrix, y []float64, c float64) error {
	// A nil *sparse.Matrix arrives as a non-nil interface; catch it before
	// Rows dereferences it.
	if m, ok := x.(*sparse.Matrix); x == nil || (ok && m == nil) || x.Rows() == 0 {
		return fmt.Errorf("linear: empty training matrix")
	}
	if x.Rows() != len(y) {
		return fmt.Errorf("linear: %d rows but %d labels", x.Rows(), len(y))
	}
	for i, v := range y {
		if v != 1 && v != -1 {
			return fmt.Errorf("linear: label %d is %v, want +1 or -1", i, v)
		}
	}
	if c <= 0 {
		return fmt.Errorf("linear: C must be positive, got %v", c)
	}
	return nil
}

// Train fits a linear SVM on labels in {+1, -1} with the variant named by
// opts.Linear.Variant ("" means DCD), reading C, Eps, Seed and
// Linear.MaxEpochs from opts. The returned model carries the dense weight
// vector (Model.W) and no support vectors; its decision function is w'x
// (the bias-free LIBLINEAR convention, Beta = 0).
//
// x is any row-iterable matrix: the usual in-memory CSR, or an out-of-core
// sparse.OOCMatrix when the dataset exceeds RAM. The solvers touch data
// only row-at-a-time, and training is deterministic in (data, opts), so
// the out-of-core path produces a byte-identical model.
func Train(x sparse.RowMatrix, y []float64, opts solver.Options) (*Result, error) {
	return train(x, y, opts, true)
}

// train is Train with DCD's projected-gradient shrinking switchable; the
// no-shrink path is the reference the shrinking bookkeeping is tested
// against.
func train(x sparse.RowMatrix, y []float64, opts solver.Options, shrink bool) (*Result, error) {
	if err := validate(x, y, opts.C); err != nil {
		return nil, err
	}
	v, err := variantOf(opts)
	if err != nil {
		return nil, err
	}
	opts = withDefaults(opts, v)
	var res *Result
	if v == MISO {
		res = trainMISO(x, y, opts)
	} else {
		res = trainDCD(x, y, opts, shrink)
	}
	res.Model = &model.Model{
		Kernel:       kernel.Params{Type: kernel.Linear},
		C:            opts.C,
		W:            res.W,
		Beta:         0,
		TrainSamples: x.Rows(),
		Iterations:   res.Iterations,
	}
	return res, nil
}

// variantOf parses opts.Linear.Variant; the empty name is DCD.
func variantOf(opts solver.Options) (Variant, error) {
	if opts.Linear.Variant == "" {
		return DCD, nil
	}
	return ParseVariant(opts.Linear.Variant)
}

// rebuildW recomputes w = sum_i alpha_i*y_i*x_i from scratch, removing the
// floating-point drift of many incremental axpy updates (the same "improve
// numerical stability" recompute the MISO exemplar performs). The returned
// vector is what the model ships and what the oracle's w-consistency check
// reproduces, in the same row order.
func rebuildW(x sparse.RowMatrix, y, alpha []float64, dim int) []float64 {
	w := make([]float64, dim)
	for i, a := range alpha {
		if a != 0 {
			sparse.AddScaledTo(x.RowView(i), w, a*y[i])
		}
	}
	return w
}

// hingeObjectives evaluates the L1-hinge primal/dual pair at (w, alpha):
//
//	P(w) = 1/2 ||w||^2 + C sum_i max(0, 1 - y_i w'x_i)
//	D(a) = sum_i a_i - 1/2 ||w||^2
func hingeObjectives(x sparse.RowMatrix, y, w, alpha []float64, c float64) (primal, dual float64) {
	var wNorm2 float64
	for _, v := range w {
		wNorm2 += v * v
	}
	var hinge, aSum float64
	for i := 0; i < x.Rows(); i++ {
		f := sparse.GatherDense(x.RowView(i), w)
		if s := 1 - y[i]*f; s > 0 {
			hinge += s
		}
		aSum += alpha[i]
	}
	return 0.5*wNorm2 + c*hinge, aSum - 0.5*wNorm2
}

// squaredHingeObjectives evaluates the L2-hinge primal/dual pair at
// (w, alpha):
//
//	P(w) = 1/2 ||w||^2 + C/2 sum_i max(0, 1 - y_i w'x_i)^2
//	D(a) = sum_i a_i - 1/2 ||w||^2 - 1/(2C) sum_i a_i^2
func squaredHingeObjectives(x sparse.RowMatrix, y, w, alpha []float64, c float64) (primal, dual float64) {
	var wNorm2 float64
	for _, v := range w {
		wNorm2 += v * v
	}
	var sq, aSum, aSq float64
	for i := 0; i < x.Rows(); i++ {
		f := sparse.GatherDense(x.RowView(i), w)
		if s := 1 - y[i]*f; s > 0 {
			sq += s * s
		}
		aSum += alpha[i]
		aSq += alpha[i] * alpha[i]
	}
	return 0.5*wNorm2 + 0.5*c*sq, aSum - 0.5*wNorm2 - aSq/(2*c)
}

// nnz counts the nonzero entries of a dense vector (reported in summaries:
// on text-shaped data the trained hyperplane stays sparse because only
// features seen in margin-violating samples ever receive mass).
func nnz(w []float64) int {
	n := 0
	for _, v := range w {
		if v != 0 {
			n++
		}
	}
	return n
}

// NNZ reports the number of nonzero weights of the trained hyperplane.
func (r *Result) NNZ() int { return nnz(r.W) }

// gapTolerance is the absolute duality-gap bound corresponding to an eps
// termination: each sample contributes at most C*eps (see the derivation in
// oracle's linear checks).
func gapTolerance(n int, c, eps float64) float64 {
	return eps*c*float64(n) + 1e-6
}
