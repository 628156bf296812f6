// Package model holds the output of SVM training — the support vectors,
// their coefficients, and the hyperplane threshold beta — and implements
// prediction and evaluation on held-out data.
//
// A trained classifier is f(x) = sign(sum_i alpha_i y_i Phi(sv_i, x) - beta),
// where beta follows the paper's convention: at termination
// beta = mean(gamma_i : i in I0) when I0 is non-empty, else
// (beta_low + beta_up)/2.
package model

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/kernel"
	"repro/internal/sparse"
)

// Model is a trained SVM: a binary classifier (the zero-value Task), an
// epsilon-SVR regressor, or a one-class anomaly detector. All three share
// the kernel expansion sum_i Coef_i*Phi(sv_i, x) - Beta; the task kind
// selects how that value is interpreted (sign, regression estimate, or
// anomaly margin).
type Model struct {
	Kernel kernel.Params
	C      float64 // box constraint used during training (informational)

	// Task is the QP kind this model solves; empty means TaskCSVC.
	Task Task
	// Epsilon is the SVR tube half-width (TaskSVR only).
	Epsilon float64
	// Nu is the one-class outlier-fraction bound (TaskOneClass only); the
	// training box was [0, 1/(nu*n)] and C records that bound.
	Nu float64

	// SV holds the support vectors (rows with alpha > 0).
	SV *sparse.Matrix
	// Coef[i] = alpha_i * y_i for support vector i.
	Coef []float64
	// Beta is the hyperplane threshold (libsvm's rho).
	Beta float64

	// W, when non-empty, is an explicit dense hyperplane: the decision
	// function is w'x - Beta, evaluated as a single sparse-dense dot with
	// no kernel sweep. Linear-kernel trainers (internal/linear) produce
	// such models directly; a model may also carry both W and a support
	// vector set, in which case W takes precedence everywhere and the
	// kernel path remains available for parity checks.
	W []float64

	// Training metadata, informational.
	TrainSamples int
	Iterations   int64

	// Platt calibration parameters for P(y=+1|f) = 1/(1+exp(ProbA*f+ProbB)),
	// fitted by internal/probability. HasProb reports whether they are set.
	ProbA, ProbB float64
	HasProb      bool

	svNormsCache []float64         // lazily computed support-vector squared norms
	svEval       *kernel.Evaluator // lazily built evaluator over the SV matrix
	predictPool  sync.Pool         // *predictState, per-call row-engine state
	packed       *PackedSVs        // optional dense predict-time layout (see Pack)
}

// predictState is the per-call state of the batched decision function: a
// sub-evaluator (independent eval counter over the shared SV matrix), a
// dense pivot scratch, and the kernel-row buffer K(x, sv_i). States are
// recycled through Model.predictPool so concurrent predictions never share
// mutable state yet allocate only on pool misses.
type predictState struct {
	ev  *kernel.Evaluator
	scr kernel.Scratch
	buf []float64
}

// acquirePredict returns a predictState for one decision-function call;
// release it with m.predictPool.Put. Follows the svNorm concurrency
// contract: lazy initialization is single-goroutine, WarmNorms makes
// subsequent concurrent calls safe.
func (m *Model) acquirePredict() *predictState {
	ev := m.svEvaluator()
	if st, _ := m.predictPool.Get().(*predictState); st != nil {
		return st
	}
	return &predictState{ev: ev.SubEvaluator(), buf: make([]float64, m.NumSV())}
}

// NumSV returns the number of support vectors.
func (m *Model) NumSV() int {
	if m.SV == nil {
		return 0
	}
	return m.SV.Rows()
}

// SVFraction returns |SV| / training samples — the quantity Figure 1 of the
// paper illustrates being small.
func (m *Model) SVFraction() float64 {
	if m.TrainSamples == 0 {
		return 0
	}
	return float64(m.NumSV()) / float64(m.TrainSamples)
}

// IsLinear reports whether the model carries an explicit dense hyperplane
// (the linear fast path applies).
func (m *Model) IsLinear() bool { return len(m.W) > 0 }

// FeatureDim returns the feature-space width prediction expects: the
// support-vector matrix's column count, or the hyperplane length for
// W-only linear models. Request rows with larger indices pair with
// implicit zeros on every path, so the width is a sizing hint, not a cap.
func (m *Model) FeatureDim() int {
	if m.SV != nil {
		return m.SV.Cols
	}
	return len(m.W)
}

// Validate checks structural invariants of the model. A model must carry a
// support-vector set, a dense hyperplane W, or both; whichever is present
// is validated.
func (m *Model) Validate() error {
	if m.SV == nil && !m.IsLinear() {
		return fmt.Errorf("model: nil support vector matrix and no dense hyperplane")
	}
	for j, v := range m.W {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("model: weight %d is %v", j, v)
		}
	}
	if m.SV == nil {
		if len(m.Coef) != 0 {
			return fmt.Errorf("model: %d coefficients with no support vector matrix", len(m.Coef))
		}
		if math.IsNaN(m.Beta) || math.IsInf(m.Beta, 0) {
			return fmt.Errorf("model: beta is %v", m.Beta)
		}
		if err := m.validateTask(); err != nil {
			return err
		}
		return m.Kernel.Validate()
	}
	if err := m.SV.Validate(); err != nil {
		return fmt.Errorf("model: SV matrix: %w", err)
	}
	if len(m.Coef) != m.SV.Rows() {
		return fmt.Errorf("model: %d coefficients for %d support vectors", len(m.Coef), m.SV.Rows())
	}
	for i, c := range m.Coef {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("model: coefficient %d is %v", i, c)
		}
		if c == 0 {
			return fmt.Errorf("model: coefficient %d is zero; support vectors must have alpha > 0", i)
		}
		if m.C > 0 && math.Abs(c) > m.C*(1+1e-9) {
			return fmt.Errorf("model: |coef[%d]| = %v exceeds C = %v", i, math.Abs(c), m.C)
		}
	}
	if math.IsNaN(m.Beta) || math.IsInf(m.Beta, 0) {
		return fmt.Errorf("model: beta is %v", m.Beta)
	}
	if err := m.validateTask(); err != nil {
		return err
	}
	return m.Kernel.Validate()
}

// DecisionValue returns the decision function for one sample row. A model
// carrying a dense hyperplane takes the linear fast path — one sparse-dense
// dot, no row engine, no per-call state. Otherwise the kernel
// sum_i coef_i*Phi(sv_i, x) - beta is evaluated through the batched row
// engine: x is scattered into a dense scratch once and the whole kernel row
// over the support vectors is gathered in one pass.
func (m *Model) DecisionValue(x sparse.Row) float64 {
	if m.IsLinear() {
		return sparse.DotDense(x, m.W) - m.Beta
	}
	return m.KernelDecisionValue(x)
}

// KernelDecisionValue evaluates the support-vector kernel path even when a
// dense hyperplane is present — the parity reference the linear fast path
// is tested against (for a linear kernel, w = sum_i coef_i*sv_i makes the
// two mathematically identical).
func (m *Model) KernelDecisionValue(x sparse.Row) float64 {
	if m.NumSV() == 0 {
		return -m.Beta
	}
	st := m.acquirePredict()
	f := m.decisionWith(st, x)
	m.predictPool.Put(st)
	return f
}

// decisionWith scores one row using borrowed per-call state. When the dense
// predict-time layout is built (Pack), the kernel row comes from the packed
// block — bit-identical to the row engine, so every caller sees one path's
// numbers regardless of packing.
func (m *Model) decisionWith(st *predictState, x sparse.Row) float64 {
	if p := m.packed; p != nil {
		return p.decision(x, m.Coef, m.Beta, st.buf)
	}
	nx := kernel.SquaredNormOf(x)
	// Query columns at or past SV.Cols meet a zero in every support vector,
	// so they enter the norm only. Cutting them from the pivot keeps the row
	// engine's dense scratch at the model's width rather than the query's
	// largest index, which a client may set near 2^31 (16 GiB of scratch).
	if n := len(x.Idx); n > 0 && int(x.Idx[n-1]) >= m.SV.Cols {
		k := sort.Search(n, func(k int) bool { return int(x.Idx[k]) >= m.SV.Cols })
		x = sparse.Row{Idx: x.Idx[:k], Val: x.Val[:k]}
	}
	st.ev.RowRangeInto(&st.scr, x, nx, 0, len(m.Coef), st.buf)
	var s float64
	for i, c := range m.Coef {
		s += c * st.buf[i]
	}
	return s - m.Beta
}

// svEvaluator returns the kernel evaluator bound to the support-vector
// matrix, building it (and the norm cache) on first use. Lazy
// initialization is single-goroutine, like svNormsCache always was;
// callers that predict concurrently call WarmNorms first.
func (m *Model) svEvaluator() *kernel.Evaluator {
	if m.svEval == nil {
		m.WarmNorms()
	}
	return m.svEval
}

// WarmNorms precomputes the support-vector norm cache and the evaluator
// behind the batched decision function, so that subsequent DecisionValue
// calls are safe to issue from multiple goroutines.
func (m *Model) WarmNorms() {
	if m.SV == nil {
		return
	}
	if m.svNormsCache == nil {
		m.svNormsCache = m.SV.SquaredNorms()
	}
	if m.svEval == nil {
		m.svEval = kernel.NewEvaluatorWithNorms(m.Kernel, m.SV, m.svNormsCache)
	}
}

// SVTrainingSet reinterprets the support-vector set as a standalone
// training problem: the SV rows, the labels y_i = sign(coef_i) and the
// dual variables alpha_i = |coef_i| (coef_i = alpha_i*y_i with alpha_i > 0,
// so both are recovered exactly). Divide-and-conquer training coalesces
// per-cluster sub-solutions this way: the union of the returned sets forms
// the next level's warm-started problem, and the union satisfies the dual
// equality constraint sum_i alpha_i*y_i = 0 because each sub-solution does.
func (m *Model) SVTrainingSet() (x *sparse.Matrix, y, alpha []float64) {
	n := m.NumSV()
	y = make([]float64, n)
	alpha = make([]float64, n)
	for i, c := range m.Coef {
		if c >= 0 {
			y[i], alpha[i] = 1, c
		} else {
			y[i], alpha[i] = -1, -c
		}
	}
	return m.SV, y, alpha
}

// Probability returns the calibrated P(y=+1 | x) and true, or (0, false)
// when the model carries no Platt parameters.
func (m *Model) Probability(x sparse.Row) (float64, bool) {
	if !m.HasProb {
		return 0, false
	}
	return m.probFromDecision(m.DecisionValue(x)), true
}

// ProbabilityFromDecision maps an already-computed decision value through
// the model's Platt sigmoid. Batch callers (the inference server) compute
// decision values once via DecisionValues and derive label + probability
// from them without re-evaluating kernels.
func (m *Model) ProbabilityFromDecision(f float64) (float64, bool) {
	if !m.HasProb {
		return 0, false
	}
	return m.probFromDecision(f), true
}

func (m *Model) probFromDecision(f float64) float64 {
	fApB := m.ProbA*f + m.ProbB
	if fApB >= 0 {
		e := math.Exp(-fApB)
		return e / (1 + e)
	}
	return 1 / (1 + math.Exp(fApB))
}

// Predict classifies one sample, returning +1 or -1.
func (m *Model) Predict(x sparse.Row) float64 {
	if m.DecisionValue(x) >= 0 {
		return 1
	}
	return -1
}

// Metrics summarizes classification quality on a labeled set.
type Metrics struct {
	Total    int
	Correct  int
	TP, TN   int
	FP, FN   int
	Accuracy float64 // percent, matching the paper's Table V convention
}

// Evaluate computes accuracy metrics of the model on (x, y) with labels
// in {+1, -1}.
func (m *Model) Evaluate(x *sparse.Matrix, y []float64) (Metrics, error) {
	if x.Rows() != len(y) {
		return Metrics{}, fmt.Errorf("model: %d rows but %d labels", x.Rows(), len(y))
	}
	var mt Metrics
	mt.Total = x.Rows()
	for i := 0; i < x.Rows(); i++ {
		pred := m.Predict(x.RowView(i))
		switch {
		case pred > 0 && y[i] > 0:
			mt.TP++
		case pred < 0 && y[i] < 0:
			mt.TN++
		case pred > 0 && y[i] < 0:
			mt.FP++
		default:
			mt.FN++
		}
	}
	mt.Correct = mt.TP + mt.TN
	if mt.Total > 0 {
		mt.Accuracy = 100 * float64(mt.Correct) / float64(mt.Total)
	}
	return mt, nil
}
