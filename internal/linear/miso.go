package linear

import (
	"math"
	"math/rand"

	"repro/internal/solver"
	"repro/internal/sparse"
)

// trainMISO runs the incremental primal surrogate solver of the MISO family
// on the squared-hinge objective, following the miso_svm_aux exemplar. The
// exemplar works in the sample-averaged convention
//
//	min_w  1/n sum_i 1/2 max(0, 1 - y_i w'x_i)^2 + lambda/2 ||w||^2
//
// which is exactly C*n times smaller than this repository's convention
// (P = 1/2||w||^2 + C/2 sum_i max(0,.)^2) when lambda = 1/(C*n) — the two
// share the same minimizer, so the solver iterates in the exemplar's scaling
// and the Result reports the repository-convention objectives.
//
// Each step draws one sample, minimizes its quadratic surrogate in closed
// form and folds the change into w with the convex-averaging step size
// delta = n*min(1/n, lambda/(2L)), L = mean||x_i||^2 + lambda. Every epoch
// the true duality gap is evaluated; the run stops when the scaled gap
// drops below Eps (equivalently, the unscaled gap below Eps*C*n) or the
// dual stops improving.
func trainMISO(x sparse.RowMatrix, y []float64, opts solver.Options) *Result {
	n := x.Rows()
	rng := rand.New(rand.NewSource(opts.Seed))

	lambda := 1 / (opts.C * float64(n))
	norms := sparse.SquaredNormsOf(x)
	var r float64
	for _, v := range norms {
		r += v
	}
	r /= float64(n)
	l := r + lambda
	delta := float64(n) * math.Min(1/float64(n), lambda/(2*l))

	w := make([]float64, x.Dim())
	// ab is the exemplar's alpha: w = sum_i ab_i x_i / n. The repository
	// convention's dual point is a_i = y_i*ab_i/n >= 0.
	ab := make([]float64, n)

	res := &Result{}
	dualOld := math.Inf(-1)
	tol := gapTolerance(n, opts.C, opts.Eps)
	for res.Epochs = 0; res.Epochs < opts.Linear.MaxEpochs; res.Epochs++ {
		for t := 0; t < n; t++ {
			i := rng.Intn(n)
			xi := x.RowView(i)
			beta := y[i] * sparse.GatherDense(xi, w)
			gamma := math.Max(1-beta, 0)
			na := (1-delta)*ab[i] + delta*y[i]*gamma/lambda
			if na != ab[i] {
				sparse.AddScaledTo(xi, w, (na-ab[i])/float64(n))
				ab[i] = na
				res.Iterations++
			}
		}

		alpha := scaleDual(ab, y, n)
		// Periodic drift-free recompute, as the exemplar does before each
		// objective evaluation.
		w = rebuildMISOW(x, ab, x.Dim())
		primal, dual := squaredHingeObjectives(x, y, w, alpha, opts.C)
		res.Primal, res.Objective, res.Gap = primal, dual, primal-dual
		if res.Gap < tol {
			res.Converged = true
			res.Epochs++
			break
		}
		if dual <= dualOld {
			// The dual bound stopped improving: further epochs only churn.
			res.Epochs++
			break
		}
		dualOld = dual
	}

	res.Alpha = scaleDual(ab, y, n)
	res.W = rebuildW(x, y, res.Alpha, x.Dim())
	res.Primal, res.Objective = squaredHingeObjectives(x, y, res.W, res.Alpha, opts.C)
	res.Gap = res.Primal - res.Objective
	res.Converged = res.Converged || res.Gap < tol
	return res
}

// scaleDual converts the exemplar's signed, n-scaled alphas into the
// repository-convention dual point a_i = y_i*ab_i/n, clipping the tiny
// negative values floating-point averaging can leave behind.
func scaleDual(ab, y []float64, n int) []float64 {
	alpha := make([]float64, len(ab))
	for i, v := range ab {
		a := y[i] * v / float64(n)
		if a < 0 {
			a = 0
		}
		alpha[i] = a
	}
	return alpha
}

// rebuildMISOW recomputes w = sum_i ab_i x_i / n from scratch.
func rebuildMISOW(x sparse.RowMatrix, ab []float64, dim int) []float64 {
	w := make([]float64, dim)
	n := float64(len(ab))
	for i, v := range ab {
		if v != 0 {
			sparse.AddScaledTo(x.RowView(i), w, v/n)
		}
	}
	return w
}
