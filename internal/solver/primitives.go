// Package solver holds the numerical primitives shared by the sequential
// baseline (internal/smo) and the distributed solver (internal/core): the
// Keerthi index-set predicates (Eq. 4 of the paper), the two-sample
// analytic optimization step (Eq. 6/7), and the hyperplane threshold
// computation. It also holds the loops that apply them, ActiveSet's
// violator selection, Eq. 2 gradient update, Eq. 9 shrinking and
// second-order partner, which both solvers embed. Keeping them in one
// place guarantees that the baseline and the proposed solver perform
// bitwise identical updates, which is what the paper's accuracy-parity
// claim (Table V) rests on.
package solver

import "math"

// Tau is the floor applied to the second derivative eta = -rho when the
// kernel sub-matrix of the selected pair is (numerically) singular, e.g.
// for duplicate samples. Matches libsvm's TAU.
const Tau = 1e-12

// InUp reports whether sample (y, alpha) belongs to I0 u I1 u I2 — the set
// over which beta_up = min gamma is taken (Eq. 3/4). Equivalently:
// y=+1 with alpha < C, or y=-1 with alpha > 0.
func InUp(y, alpha, c float64) bool {
	if y > 0 {
		return alpha < c
	}
	return alpha > 0
}

// InLow reports whether sample (y, alpha) belongs to I0 u I3 u I4 — the set
// over which beta_low = max gamma is taken. Equivalently: y=+1 with
// alpha > 0, or y=-1 with alpha < C.
func InLow(y, alpha, c float64) bool {
	if y > 0 {
		return alpha > 0
	}
	return alpha < c
}

// IndexSet enumerates the paper's Eq. 4 classification of one sample.
type IndexSet int

// Index sets from Eq. 4. I0 is the free set (0 < alpha < C).
const (
	I0 IndexSet = iota
	I1          // y=+1, alpha=0
	I2          // y=-1, alpha=C
	I3          // y=+1, alpha=C
	I4          // y=-1, alpha=0
)

// Classify returns the Eq. 4 index set of a sample. Boundary comparisons
// are exact: alpha values are set to exactly 0 or C by the clipped step.
func Classify(y, alpha, c float64) IndexSet {
	switch {
	case alpha > 0 && alpha < c:
		return I0
	case y > 0 && alpha <= 0:
		return I1
	case y <= 0 && alpha >= c:
		return I2
	case y > 0:
		return I3
	default:
		return I4
	}
}

// Step is the outcome of one analytic two-sample optimization.
type Step struct {
	T                       float64 // the step along the feasible direction
	NewAlphaUp, NewAlphaLow float64
	DeltaUp, DeltaLow       float64 // alpha changes (new - old)
}

// OptimizePair solves the two-sample subproblem analytically (Eq. 6 with
// rho from Eq. 7, Platt-style clipping to the box [0, C]).
//
// Inputs: gradients gammaUp/gammaLow (the paper's gamma for i_up and
// i_low), labels, current alphas, and the three kernel values
// kUU = Phi(x_up, x_up), kLL = Phi(x_low, x_low), kUL = Phi(x_up, x_low).
//
// The unconstrained optimum along the feasible direction
// (dAlphaLow = yLow*t, dAlphaUp = -yUp*t) is t* = (gammaUp - gammaLow)/eta
// with eta = kUU + kLL - 2*kUL = -rho; t* is then clipped so both alphas
// stay within [0, C]. For gammaUp < gammaLow (a violating pair) the step
// is strictly negative unless the box forbids any progress.
func OptimizePair(gammaUp, gammaLow, yUp, yLow, alphaUp, alphaLow, kUU, kLL, kUL, c float64) Step {
	return OptimizePairBox(gammaUp, gammaLow, yUp, yLow, alphaUp, alphaLow, kUU, kLL, kUL, c, c)
}

// OptimizePairBox is OptimizePair with per-sample upper bounds: alphaUp
// stays within [0, cUp] and alphaLow within [0, cLow]. Task-formulation
// QPs (internal/tasks) use it to express boxes like the one-class
// [0, 1/(nu*n)]; OptimizePair delegates here with cUp = cLow = C, so the
// classification path performs bitwise identical arithmetic.
func OptimizePairBox(gammaUp, gammaLow, yUp, yLow, alphaUp, alphaLow, kUU, kLL, kUL, cUp, cLow float64) Step {
	eta := kUU + kLL - 2*kUL
	if eta <= Tau {
		// Degenerate (duplicate or near-duplicate samples): fall back to
		// a steep step that the box clip resolves, as in libsvm.
		eta = Tau
	}
	t := (gammaUp - gammaLow) / eta

	// Feasibility: alphaLow + yLow*t in [0, cLow] and alphaUp - yUp*t in [0, cUp].
	tMin := math.Inf(-1)
	tMax := math.Inf(1)
	clampDir := func(coef, alpha, c float64) {
		// alpha + coef*t in [0, C]
		lo, hi := -alpha/coef, (c-alpha)/coef
		if coef < 0 {
			lo, hi = hi, lo
		}
		tMin = math.Max(tMin, lo)
		tMax = math.Min(tMax, hi)
	}
	clampDir(yLow, alphaLow, cLow)
	clampDir(-yUp, alphaUp, cUp)
	if t < tMin {
		t = tMin
	}
	if t > tMax {
		t = tMax
	}

	newLow := alphaLow + yLow*t
	newUp := alphaUp - yUp*t
	// Snap to the box boundaries so index-set classification stays exact.
	newLow = snap(newLow, cLow)
	newUp = snap(newUp, cUp)
	return Step{
		T:           t,
		NewAlphaUp:  newUp,
		NewAlphaLow: newLow,
		DeltaUp:     newUp - alphaUp,
		DeltaLow:    newLow - alphaLow,
	}
}

// snap rounds alpha onto {0, C} when within rounding distance, keeping the
// exact-comparison classification in Classify valid. (libsvm applies the
// same idea when clipping to the box.)
func snap(alpha, c float64) float64 {
	const rel = 1e-12
	if alpha <= rel*c {
		return 0
	}
	if alpha >= c*(1-rel) {
		return c
	}
	return alpha
}

// GradientDelta returns the Eq. 2 gradient increment for sample i given the
// step t and the kernel values kLowI = Phi(x_low, x_i), kUpI = Phi(x_up, x_i):
//
//	gamma_i += yUp*deltaUp*K(up,i) + yLow*deltaLow*K(low,i)
//	         = t * (K(low,i) - K(up,i))
//
// using deltaUp = -yUp*t and deltaLow = yLow*t.
func GradientDelta(t, kUpI, kLowI float64) float64 {
	return t * (kLowI - kUpI)
}

// Threshold computes the hyperplane threshold beta at termination per the
// paper: the mean gradient over the free set I0 when it is non-empty,
// otherwise the midpoint of beta_low and beta_up.
func Threshold(sumGammaI0 float64, countI0 int, betaUp, betaLow float64) float64 {
	if countI0 > 0 {
		return sumGammaI0 / float64(countI0)
	}
	return (betaLow + betaUp) / 2
}

// Converged reports the Eq. 5 optimality condition beta_up + 2*eps >= beta_low.
func Converged(betaUp, betaLow, eps float64) bool {
	return betaUp+2*eps >= betaLow
}

// Shrinkable implements the Eq. 9 elimination condition: a sample may be
// shrunk when it is bound at the "wrong" end and its gradient lies strictly
// outside the (beta_up, beta_low) band:
//
//	i in I3 u I4 and gamma_i < beta_up, or
//	i in I1 u I2 and gamma_i > beta_low.
//
// Free samples (I0) are never shrunk.
func Shrinkable(set IndexSet, gamma, betaUp, betaLow float64) bool {
	switch set {
	case I3, I4:
		return gamma < betaUp
	case I1, I2:
		return gamma > betaLow
	default:
		return false
	}
}

// DualObjective computes W(alpha) = sum alpha_i - 1/2 sum_ij alpha_i
// alpha_j y_i y_j K_ij from gradients: since gamma_i = sum_j alpha_j y_j
// K_ij - y_i, we have sum_i alpha_i y_i (gamma_i + y_i) = sum_ij ... so
// W = sum_i alpha_i - 1/2 * sum_i alpha_i y_i (gamma_i + y_i)
//
//	= 1/2 * sum_i alpha_i (1 - y_i*gamma_i).
//
// Used by tests to verify monotone progress and by stats reporting.
func DualObjective(alpha, y, gamma []float64) float64 {
	var w float64
	for i := range alpha {
		w += alpha[i] * (1 - y[i]*gamma[i])
	}
	return w / 2
}

// DualObjectiveQP generalizes DualObjective to a per-sample linear term p
// (the classification dual has p_i = -1): for the QP
//
//	min ½ sum_ij alpha_i alpha_j y_i y_j K_ij + sum_i p_i alpha_i
//
// with gamma_i = y_i*p_i + sum_j alpha_j y_j K_ij, the (max-form) objective
// is W = -½ sum_i alpha_i (y_i*gamma_i + p_i). A nil p selects the
// classification convention and is bit-identical to DualObjective.
func DualObjectiveQP(alpha, y, gamma, p []float64) float64 {
	if p == nil {
		return DualObjective(alpha, y, gamma)
	}
	var w float64
	for i := range alpha {
		w += alpha[i] * (y[i]*gamma[i] + p[i])
	}
	return -w / 2
}
