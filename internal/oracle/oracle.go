// Package oracle is the solver-agnostic correctness oracle of the
// repository: it checks any trained model (or raw dual point) against the
// underlying quadratic program, independently of which engine produced it.
//
// The paper's central claim is that adaptive shrinking plus distributed
// gradient reconstruction is exact — every Table II heuristic must converge
// to the same optimum as the unshrunk Algorithm 2. Test-set accuracy is too
// blunt an instrument to verify that (many different dual points classify a
// test set identically), so this package follows the practice of the
// solver-validation literature and measures optimality directly:
//
//   - per-sample KKT violation against the model's threshold beta, with the
//     C-bound/free classification of Eq. 4 (free alphas must sit on the
//     hyperplane, bound alphas on the correct side);
//   - the primal and dual objectives and their duality gap;
//   - dual feasibility: the box 0 <= alpha_i <= C and the equality
//     constraint sum_i alpha_i*y_i = 0;
//   - support-vector consistency: the model's SV set must correspond to a
//     recoverable per-sample alpha vector over the training set.
//
// Tolerance semantics. The solvers terminate at beta_up + 2*eps >= beta_low
// (Eq. 5), and beta is chosen inside the [beta_up, beta_low] band, so at an
// eps-approximate solution every per-sample violation is bounded by
// 2*eps: that bound, plus rounding slack, is KKTTolerance. The duality gap
// of such a point is bounded by C times the summed violations, which
// GapTolerance relaxes to 2*eps*C*n — loose, but engine-independent.
package oracle

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// Problem is the quadratic program a model is verified against: the
// training data and the hyper-parameters of the dual
//
//	max W(alpha) = sum_i alpha_i - 1/2 sum_ij alpha_i alpha_j y_i y_j K_ij
//	s.t. 0 <= alpha_i <= C,  sum_i alpha_i y_i = 0.
type Problem struct {
	X      *sparse.Matrix
	Y      []float64 // labels in {+1, -1}
	Kernel kernel.Params
	C      float64
	Eps    float64 // solver tolerance the checks are calibrated to; 0 = 1e-3
	// Workers bounds the goroutines of the O(n * |SV|) gradient
	// recomputation; 0 means GOMAXPROCS.
	Workers int
}

func (p Problem) withDefaults() Problem {
	if p.Eps <= 0 {
		p.Eps = 1e-3
	}
	if p.Workers <= 0 {
		p.Workers = runtime.GOMAXPROCS(0)
	}
	return p
}

func (p Problem) validate() error {
	if p.X == nil {
		return fmt.Errorf("oracle: nil training matrix")
	}
	if p.X.Rows() != len(p.Y) {
		return fmt.Errorf("oracle: %d rows but %d labels", p.X.Rows(), len(p.Y))
	}
	for i, v := range p.Y {
		if v != 1 && v != -1 {
			return fmt.Errorf("oracle: label %d is %v, want +1 or -1", i, v)
		}
	}
	if p.C <= 0 {
		return fmt.Errorf("oracle: C must be positive, got %v", p.C)
	}
	return p.Kernel.Validate()
}

// KKTTolerance is the maximum per-sample KKT violation an eps-approximate
// solution may exhibit: the Eq. 5 termination band is 2*eps wide and beta
// lies inside it, so no sample can violate by more (plus rounding slack).
func KKTTolerance(eps float64) float64 { return 2*eps + 1e-9 }

// GapTolerance bounds the duality gap of an eps-approximate solution:
// each of the n samples contributes at most C times its KKT violation
// (itself at most 2*eps) to the gap.
func GapTolerance(n int, c, eps float64) float64 {
	return 2*eps*c*float64(n) + 1e-6
}

// WorstSample carries the full context of the worst KKT violator, so a
// failing check names the exact sample and why it violates.
type WorstSample struct {
	Index     int     // training-set index
	Y         float64 // label
	Alpha     float64 // dual variable
	Gamma     float64 // gradient gamma_i = F_i - y_i
	Set       string  // Eq. 4 index set (I0..I4)
	Violation float64
}

// String renders the violator for diagnostics.
func (w WorstSample) String() string {
	return fmt.Sprintf("sample %d (y=%+g, alpha=%.6g, set %s): gamma=%.6g, violation=%.3e",
		w.Index, w.Y, w.Alpha, w.Set, w.Gamma, w.Violation)
}

// Report is the outcome of one verification.
type Report struct {
	N     int // training samples
	NumSV int // samples with alpha > 0

	Beta             float64 // the threshold the violations are measured against
	BetaUp, BetaLow  float64 // Eq. 3 band of the verified point
	PrimalObjective  float64
	DualObjective    float64
	DualityGap       float64 // primal - dual (>= 0 at feasible points, up to rounding)
	RelativeGap      float64 // gap / max(1, |primal|, |dual|)
	MaxKKTViolation  float64
	MeanKKTViolation float64
	EqualityResidual float64 // |sum alpha_i y_i|
	BoxViolation     float64 // max distance outside [0, C]
	AlphaMass        float64 // sum alpha_i (scales the equality tolerance)
	Worst            WorstSample

	Eps float64 // tolerance the report was calibrated to
	C   float64
}

// String renders the report as an aligned block for CLI output.
func (r *Report) String() string {
	status := "OK"
	if err := r.Check(); err != nil {
		status = "FAIL"
	}
	return fmt.Sprintf(
		"oracle report (%s): n=%d SVs=%d\n"+
			"  dual objective    %.6f\n"+
			"  primal objective  %.6f\n"+
			"  duality gap       %.3e (relative %.3e, tolerance %.3e)\n"+
			"  max KKT violation %.3e (tolerance %.3e) at %s\n"+
			"  mean KKT violation %.3e\n"+
			"  sum(alpha*y)      %.3e (alpha mass %.6g)\n"+
			"  box violation     %.3e\n"+
			"  beta=%.6g band [beta_up=%.6g, beta_low=%.6g]",
		status, r.N, r.NumSV,
		r.DualObjective, r.PrimalObjective,
		r.DualityGap, r.RelativeGap, GapTolerance(r.N, r.C, r.Eps),
		r.MaxKKTViolation, KKTTolerance(r.Eps), r.Worst,
		r.MeanKKTViolation,
		r.EqualityResidual, r.AlphaMass,
		r.BoxViolation,
		r.Beta, r.BetaUp, r.BetaLow)
}

// Check returns nil when the verified point is an eps-approximate optimum:
// feasible, KKT violations inside the 2*eps band, and a duality gap within
// the engine-independent bound. The error names the worst violator.
func (r *Report) Check() error {
	if r.BoxViolation > 1e-9*(1+r.C) {
		return fmt.Errorf("oracle: box constraint violated by %.3e (C=%g)", r.BoxViolation, r.C)
	}
	if eqTol := 1e-6 * (1 + r.AlphaMass); r.EqualityResidual > eqTol {
		return fmt.Errorf("oracle: sum(alpha*y) = %.3e exceeds tolerance %.3e", r.EqualityResidual, eqTol)
	}
	if tol := KKTTolerance(r.Eps); r.MaxKKTViolation > tol {
		return fmt.Errorf("oracle: max KKT violation %.3e exceeds tolerance %.3e: %s",
			r.MaxKKTViolation, tol, r.Worst)
	}
	if r.DualityGap < -1e-6*(1+math.Abs(r.DualObjective)) {
		return fmt.Errorf("oracle: negative duality gap %.3e (primal %.6f < dual %.6f): objectives are inconsistent",
			r.DualityGap, r.PrimalObjective, r.DualObjective)
	}
	if tol := GapTolerance(r.N, r.C, r.Eps); r.DualityGap > tol {
		return fmt.Errorf("oracle: duality gap %.3e exceeds tolerance %.3e (worst violator %s)",
			r.DualityGap, tol, r.Worst)
	}
	return nil
}

// setName labels an Eq. 4 index set for diagnostics.
func setName(s solver.IndexSet) string {
	switch s {
	case solver.I0:
		return "I0 (free)"
	case solver.I1:
		return "I1 (y=+1, alpha=0)"
	case solver.I2:
		return "I2 (y=-1, alpha=C)"
	case solver.I3:
		return "I3 (y=+1, alpha=C)"
	case solver.I4:
		return "I4 (y=-1, alpha=0)"
	default:
		return fmt.Sprintf("IndexSet(%d)", int(s))
	}
}

// VerifyAlpha checks a full dual point against the problem, measuring KKT
// violations against the given threshold beta (the model's bias; pass the
// solver's computed beta). It recomputes every gradient from scratch —
// gamma_i = sum_{alpha_j > 0} alpha_j y_j K(j, i) - y_i — so the check is
// independent of any solver bookkeeping.
func (p Problem) VerifyAlpha(alpha []float64, beta float64) (*Report, error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	n := p.X.Rows()
	if len(alpha) != n {
		return nil, fmt.Errorf("oracle: %d alphas for %d samples", len(alpha), n)
	}
	for i, a := range alpha {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return nil, fmt.Errorf("oracle: alpha[%d] is %v", i, a)
		}
	}

	var svs []int
	for j, a := range alpha {
		if a > 0 {
			svs = append(svs, j)
		}
	}
	gamma := p.gradients(alpha)

	r := &Report{N: n, NumSV: len(svs), Beta: beta, Eps: p.Eps, C: p.C,
		BetaUp: math.Inf(1), BetaLow: math.Inf(-1)}
	var eq, sumViol, slackSum, wNorm2 float64
	for i := 0; i < n; i++ {
		a, y, g := alpha[i], p.Y[i], gamma[i]
		eq += a * y
		r.AlphaMass += a
		if excess := math.Max(-a, a-p.C); excess > r.BoxViolation {
			r.BoxViolation = excess
		}
		// F_i = gamma_i + y_i is the margin sum; w'w accumulates alpha_i y_i F_i.
		f := g + y
		wNorm2 += a * y * f

		set := solver.Classify(y, a, p.C)
		if solver.InUp(y, a, p.C) && g < r.BetaUp {
			r.BetaUp = g
		}
		if solver.InLow(y, a, p.C) && g > r.BetaLow {
			r.BetaLow = g
		}
		// KKT against beta: free alphas must satisfy y*f(x) = 1, i.e.
		// gamma = beta; alpha = 0 requires y*f(x) >= 1; alpha = C requires
		// y*f(x) <= 1. In gamma form, y*f(x) - 1 = y*(gamma - beta).
		var viol float64
		switch set {
		case solver.I0:
			viol = math.Abs(g - beta)
		case solver.I1, solver.I4: // alpha = 0
			viol = math.Max(0, -y*(g-beta))
		default: // I2, I3: alpha = C
			viol = math.Max(0, y*(g-beta))
		}
		sumViol += viol
		if viol > r.MaxKKTViolation {
			r.MaxKKTViolation = viol
			r.Worst = WorstSample{Index: i, Y: y, Alpha: a, Gamma: g,
				Set: setName(set), Violation: viol}
		}
		// Primal slack with the model's threshold: xi_i = max(0, 1 - y*(F_i - beta)).
		slackSum += math.Max(0, 1-y*(f-beta))
	}
	r.EqualityResidual = math.Abs(eq)
	r.MeanKKTViolation = sumViol / float64(n)
	r.DualObjective = r.AlphaMass - wNorm2/2
	r.PrimalObjective = wNorm2/2 + p.C*slackSum
	r.DualityGap = r.PrimalObjective - r.DualObjective
	r.RelativeGap = r.DualityGap / math.Max(1, math.Max(math.Abs(r.PrimalObjective), math.Abs(r.DualObjective)))
	return r, nil
}

// VerifyModel recovers the per-sample dual point behind a trained model
// (matching its support vectors back to training rows) and verifies it
// against the problem with the model's own threshold.
func (p Problem) VerifyModel(m *model.Model) (*Report, error) {
	alpha, err := RecoverAlpha(p.X, p.Y, m)
	if err != nil {
		return nil, err
	}
	return p.VerifyAlpha(alpha, m.Beta)
}

// gradients recomputes gamma_i = sum_{alpha_j > 0} alpha_j y_j K(j, i) - y_i
// for every sample through kernelCombination; a negative alpha
// contributes nothing, as it is no support vector.
func (p Problem) gradients(alpha []float64) []float64 {
	coef := make([]float64, len(alpha))
	for j, a := range alpha {
		if a > 0 {
			coef[j] = a * p.Y[j]
		}
	}
	gamma := kernelCombination(p.X, p.Kernel, coef, p.Workers)
	for i := range gamma {
		gamma[i] -= p.Y[i]
	}
	return gamma
}

// RecoverAlpha maps a model's support vectors back onto the training set,
// returning the full per-sample dual vector (alpha_i = |coef| for matched
// rows, 0 elsewhere). Each support vector must match a distinct training
// row with the same content and a label agreeing with sign(coef); identical
// duplicate rows are assigned greedily, which leaves gradients — and hence
// every oracle metric — unchanged. A support vector that matches no
// remaining training row means the model was not trained on (x, y), which
// is reported as a support-vector-consistency error.
func RecoverAlpha(x *sparse.Matrix, y []float64, m *model.Model) ([]float64, error) {
	if m == nil || m.SV == nil {
		return nil, fmt.Errorf("oracle: nil model")
	}
	if len(m.Coef) != m.SV.Rows() {
		return nil, fmt.Errorf("oracle: model has %d coefficients for %d support vectors", len(m.Coef), m.SV.Rows())
	}
	n := x.Rows()
	if n != len(y) {
		return nil, fmt.Errorf("oracle: %d rows but %d labels", n, len(y))
	}
	// Bucket training rows by (content, label); consume greedily per SV.
	type bucket struct{ idx []int }
	buckets := make(map[string]*bucket, n)
	key := func(r sparse.Row, label float64) string {
		if label > 0 {
			return "+" + r.Key()
		}
		return "-" + r.Key()
	}
	for i := 0; i < n; i++ {
		k := key(x.RowView(i), y[i])
		b := buckets[k]
		if b == nil {
			b = &bucket{}
			buckets[k] = b
		}
		b.idx = append(b.idx, i)
	}
	alpha := make([]float64, n)
	for s := 0; s < m.SV.Rows(); s++ {
		coef := m.Coef[s]
		label := 1.0
		a := coef
		if coef < 0 {
			label, a = -1, -coef
		}
		if a == 0 {
			return nil, fmt.Errorf("oracle: support vector %d has zero coefficient", s)
		}
		k := key(m.SV.RowView(s), label)
		b := buckets[k]
		if b == nil || len(b.idx) == 0 {
			return nil, fmt.Errorf("oracle: support vector %d (coef %.6g) matches no unused training row with label %+g — model and training set are inconsistent", s, coef, label)
		}
		i := b.idx[0]
		b.idx = b.idx[1:]
		alpha[i] = a
	}
	return alpha, nil
}
