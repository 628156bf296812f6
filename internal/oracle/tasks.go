package oracle

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/sparse"
)

// This file extends the oracle to the task-formulation QPs of
// internal/tasks: epsilon-SVR and the one-class SVM. Each verifier
// recomputes the kernel combination u_i = sum_j coef_j K(j, i) from scratch
// (no solver bookkeeping) and scores the point against its own KKT system,
// reusing Report/Check so CLI output and tolerance semantics stay uniform.

// SVRProblem is the epsilon-SVR QP a regression model is verified against:
//
//	min ½ sum_ij d_i d_j K_ij - sum_i z_i d_i + epsilon sum_i |d_i|
//	s.t. -C <= d_i <= C,  sum_i d_i = 0,
//
// where d_i = alpha_i - alpha*_i collapses the doubled-variable dual.
type SVRProblem struct {
	X       *sparse.Matrix
	Z       []float64 // regression targets
	Kernel  kernel.Params
	C       float64
	Epsilon float64 // tube half-width
	Eps     float64 // solver tolerance the checks are calibrated to; 0 = 1e-3
	Workers int
}

func (p SVRProblem) validate() error {
	if p.X == nil {
		return fmt.Errorf("oracle: nil training matrix")
	}
	if p.X.Rows() != len(p.Z) {
		return fmt.Errorf("oracle: %d rows but %d targets", p.X.Rows(), len(p.Z))
	}
	if p.C <= 0 {
		return fmt.Errorf("oracle: C must be positive, got %v", p.C)
	}
	if !(p.Epsilon > 0) {
		return fmt.Errorf("oracle: epsilon must be positive, got %v", p.Epsilon)
	}
	return p.Kernel.Validate()
}

// VerifyCoef checks a collapsed SVR dual point d (one signed entry per
// training row) and threshold beta. Report.N counts the dual variables of
// the doubled formulation (2n), which is what the gap tolerance scales with.
func (p SVRProblem) VerifyCoef(d []float64, beta float64) (*Report, error) {
	if p.Eps <= 0 {
		p.Eps = 1e-3
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	n := p.X.Rows()
	if len(d) != n {
		return nil, fmt.Errorf("oracle: %d coefficients for %d samples", len(d), n)
	}
	for i, v := range d {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("oracle: coef[%d] is %v", i, v)
		}
	}
	u := kernelCombination(p.X, p.Kernel, d, p.Workers)

	r := &Report{N: 2 * n, Beta: beta, BetaUp: beta, BetaLow: beta, Eps: p.Eps, C: p.C}
	var eq, sumViol, slackSum, wNorm2, linTerm, absMass float64
	for i := 0; i < n; i++ {
		di := d[i]
		if di != 0 {
			r.NumSV++
		}
		eq += di
		absMass += math.Abs(di)
		if excess := math.Abs(di) - p.C; excess > r.BoxViolation {
			r.BoxViolation = excess
		}
		wNorm2 += di * u[i]
		linTerm += p.Z[i] * di

		// Residual of the predictor zhat_i = u_i - beta.
		res := p.Z[i] - u[i] + beta
		var viol float64
		var set string
		switch {
		case di == 0:
			viol, set = math.Max(0, math.Abs(res)-p.Epsilon), "d=0"
		case di >= p.C:
			viol, set = math.Max(0, p.Epsilon-res), "d=C"
		case di > 0:
			viol, set = math.Abs(res-p.Epsilon), "free +"
		case di <= -p.C:
			viol, set = math.Max(0, res+p.Epsilon), "d=-C"
		default:
			viol, set = math.Abs(res+p.Epsilon), "free -"
		}
		sumViol += viol
		if viol > r.MaxKKTViolation {
			r.MaxKKTViolation = viol
			r.Worst = WorstSample{Index: i, Y: 1, Alpha: di, Gamma: res, Set: set, Violation: viol}
		}
		slackSum += math.Max(0, math.Abs(res)-p.Epsilon)
	}
	r.AlphaMass = absMass
	r.EqualityResidual = math.Abs(eq)
	r.MeanKKTViolation = sumViol / float64(n)
	r.DualObjective = -wNorm2/2 + linTerm - p.Epsilon*absMass
	r.PrimalObjective = wNorm2/2 + p.C*slackSum
	r.DualityGap = r.PrimalObjective - r.DualObjective
	r.RelativeGap = r.DualityGap / math.Max(1, math.Max(math.Abs(r.PrimalObjective), math.Abs(r.DualObjective)))
	return r, nil
}

// VerifyModel recovers the signed coefficients behind a trained SVR model
// and verifies them with the model's own threshold and tube width.
func (p SVRProblem) VerifyModel(m *model.Model) (*Report, error) {
	if m.TaskKind() != model.TaskSVR {
		return nil, fmt.Errorf("oracle: model solves %s, not %s", m.TaskKind(), model.TaskSVR)
	}
	p.Epsilon = m.Epsilon
	d, err := RecoverCoef(p.X, m)
	if err != nil {
		return nil, err
	}
	return p.VerifyCoef(d, m.Beta)
}

// OneClassProblem is the nu-parameterized one-class QP:
//
//	min ½ sum_ij alpha_i alpha_j K_ij
//	s.t. 0 <= alpha_i <= 1/(nu*n),  sum_i alpha_i = 1.
type OneClassProblem struct {
	X       *sparse.Matrix
	Kernel  kernel.Params
	Nu      float64
	Eps     float64
	Workers int
}

func (p OneClassProblem) validate() error {
	if p.X == nil {
		return fmt.Errorf("oracle: nil training matrix")
	}
	if !(p.Nu > 0) || p.Nu > 1 {
		return fmt.Errorf("oracle: nu must be in (0, 1], got %v", p.Nu)
	}
	return p.Kernel.Validate()
}

// Box returns the per-sample upper bound 1/(nu*n).
func (p OneClassProblem) Box() float64 { return 1 / (p.Nu * float64(p.X.Rows())) }

// VerifyAlpha checks a one-class dual point and offset rho.
func (p OneClassProblem) VerifyAlpha(alpha []float64, rho float64) (*Report, error) {
	if p.Eps <= 0 {
		p.Eps = 1e-3
	}
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
	c := p.Box()
	u := kernelCombination(p.X, p.Kernel, alpha, p.Workers)

	r := &Report{N: n, Beta: rho, BetaUp: rho, BetaLow: rho, Eps: p.Eps, C: c}
	var sum, sumViol, slackSum, wNorm2 float64
	for i := 0; i < n; i++ {
		a := alpha[i]
		if a > 0 {
			r.NumSV++
		}
		sum += a
		if excess := math.Max(-a, a-c); excess > r.BoxViolation {
			r.BoxViolation = excess
		}
		wNorm2 += a * u[i]

		var viol float64
		var set string
		switch {
		case a <= 0:
			viol, set = math.Max(0, rho-u[i]), "alpha=0"
		case a >= c:
			viol, set = math.Max(0, u[i]-rho), "alpha=1/(nu*n)"
		default:
			viol, set = math.Abs(u[i]-rho), "free"
		}
		sumViol += viol
		if viol > r.MaxKKTViolation {
			r.MaxKKTViolation = viol
			r.Worst = WorstSample{Index: i, Y: 1, Alpha: a, Gamma: u[i], Set: set, Violation: viol}
		}
		slackSum += math.Max(0, rho-u[i])
	}
	r.AlphaMass = sum
	r.EqualityResidual = math.Abs(sum - 1)
	r.MeanKKTViolation = sumViol / float64(n)
	r.DualObjective = -wNorm2 / 2
	r.PrimalObjective = wNorm2/2 - rho + c*slackSum
	r.DualityGap = r.PrimalObjective - r.DualObjective
	r.RelativeGap = r.DualityGap / math.Max(1, math.Max(math.Abs(r.PrimalObjective), math.Abs(r.DualObjective)))
	return r, nil
}

// VerifyModel recovers the alphas behind a trained one-class model and
// verifies them with the model's own rho.
func (p OneClassProblem) VerifyModel(m *model.Model) (*Report, error) {
	if m.TaskKind() != model.TaskOneClass {
		return nil, fmt.Errorf("oracle: model solves %s, not %s", m.TaskKind(), model.TaskOneClass)
	}
	p.Nu = m.Nu
	alpha, err := RecoverCoef(p.X, m)
	if err != nil {
		return nil, err
	}
	return p.VerifyAlpha(alpha, m.Beta)
}

// RecoverCoef maps a task model's support vectors back onto the training set
// by row content alone (task QPs carry the sign inside the coefficient, so
// there is no label to disambiguate by), returning the full per-sample
// coefficient vector. Identical duplicate rows are assigned greedily, which
// leaves every kernel combination — hence every oracle metric — unchanged.
func RecoverCoef(x *sparse.Matrix, m *model.Model) ([]float64, error) {
	if m == nil || m.SV == nil {
		return nil, fmt.Errorf("oracle: nil model")
	}
	if len(m.Coef) != m.SV.Rows() {
		return nil, fmt.Errorf("oracle: model has %d coefficients for %d support vectors", len(m.Coef), m.SV.Rows())
	}
	n := x.Rows()
	buckets := make(map[string][]int, n)
	for i := 0; i < n; i++ {
		k := x.RowView(i).Key()
		buckets[k] = append(buckets[k], i)
	}
	coef := make([]float64, n)
	for s := 0; s < m.SV.Rows(); s++ {
		if m.Coef[s] == 0 {
			return nil, fmt.Errorf("oracle: support vector %d has zero coefficient", s)
		}
		k := m.SV.RowView(s).Key()
		idx := buckets[k]
		if len(idx) == 0 {
			return nil, fmt.Errorf("oracle: support vector %d (coef %.6g) matches no unused training row — model and training set are inconsistent", s, m.Coef[s])
		}
		coef[idx[0]] = m.Coef[s]
		buckets[k] = idx[1:]
	}
	return coef, nil
}

// kernelCombination computes u_i = sum_{coef_j != 0} coef_j K(j, i) for
// every sample, splitting the targets across the workers. Each nonzero
// coef_j contributes one batched row evaluation over a worker's contiguous
// target range (the dense-scratch row engine), so the CSR payload of the
// targets streams in storage order.
func kernelCombination(x *sparse.Matrix, params kernel.Params, coef []float64, workers int) []float64 {
	n := x.Rows()
	u := make([]float64, n)
	var svs []int
	for j, v := range coef {
		if v != 0 {
			svs = append(svs, j)
		}
	}
	if len(svs) == 0 {
		return u
	}
	ev := kernel.NewEvaluator(params, x)
	w := workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	chunk := func(ev *kernel.Evaluator, lo, hi int) {
		var scr kernel.Scratch
		buf := make([]float64, hi-lo)
		for _, j := range svs {
			ev.RowRangeInto(&scr, x.RowView(j), ev.Norm(j), lo, hi, buf)
			c := coef[j]
			for k, v := range buf {
				u[lo+k] += c * v
			}
		}
	}
	if w <= 1 {
		chunk(ev, 0, n)
		return u
	}
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		lo, hi := k*n/w, (k+1)*n/w
		wg.Add(1)
		go func(ev *kernel.Evaluator, lo, hi int) {
			defer wg.Done()
			chunk(ev, lo, hi)
		}(ev.SubEvaluator(), lo, hi)
	}
	wg.Wait()
	return u
}
