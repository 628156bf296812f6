// Package kernel implements the kernel functions Phi(x, y) used by the SVM
// solvers, evaluated directly on CSR rows.
//
// The paper evaluates with the Gaussian kernel Phi(x,y) = exp(-g*||x-y||^2)
// and reports the kernel width sigma^2 per dataset (Table III); the
// infrastructure "allows us to plugin other kernels (such as linear,
// polynomial)", so those are provided too. Gaussian evaluations use the
// decomposition ||x-y||^2 = ||x||^2 + ||y||^2 - 2<x,y> with squared norms
// precomputed once per dataset, making each evaluation a single sparse dot
// product (the paper's average evaluation time symbol lambda).
package kernel

import (
	"fmt"
	"math"

	"repro/internal/sparse"
)

// Type enumerates the supported kernel families.
type Type int

const (
	// Gaussian is exp(-Gamma * ||x-y||^2); the paper's evaluation kernel.
	Gaussian Type = iota
	// Linear is <x, y>.
	Linear
	// Polynomial is (Gamma*<x,y> + Coef0)^Degree.
	Polynomial
	// Sigmoid is tanh(Gamma*<x,y> + Coef0).
	Sigmoid
)

// String returns the libsvm-style name of the kernel type.
func (t Type) String() string {
	switch t {
	case Gaussian:
		return "rbf"
	case Linear:
		return "linear"
	case Polynomial:
		return "polynomial"
	case Sigmoid:
		return "sigmoid"
	default:
		return fmt.Sprintf("kernel.Type(%d)", int(t))
	}
}

// ParseType converts a libsvm-style kernel name to a Type.
func ParseType(s string) (Type, error) {
	switch s {
	case "rbf", "gaussian":
		return Gaussian, nil
	case "linear":
		return Linear, nil
	case "polynomial", "poly":
		return Polynomial, nil
	case "sigmoid":
		return Sigmoid, nil
	}
	return 0, fmt.Errorf("kernel: unknown kernel type %q", s)
}

// Params fully describes a kernel function.
type Params struct {
	Type   Type
	Gamma  float64 // Gaussian/Polynomial/Sigmoid coefficient
	Coef0  float64 // Polynomial/Sigmoid offset
	Degree int     // Polynomial degree
}

// FromSigma2 returns Gaussian kernel parameters for the paper's kernel-width
// convention: sigma^2 is the width of exp(-||x-y||^2 / (2*sigma^2)), i.e.
// Gamma = 1/(2*sigma^2).
func FromSigma2(sigma2 float64) Params {
	return Params{Type: Gaussian, Gamma: 1 / (2 * sigma2)}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	switch p.Type {
	case Gaussian:
		if p.Gamma <= 0 {
			return fmt.Errorf("kernel: gaussian gamma must be positive, got %v", p.Gamma)
		}
	case Polynomial:
		if p.Degree <= 0 {
			return fmt.Errorf("kernel: polynomial degree must be positive, got %d", p.Degree)
		}
	case Linear, Sigmoid:
	default:
		return fmt.Errorf("kernel: unknown type %d", int(p.Type))
	}
	return nil
}

// String renders the parameters for logs and model files.
func (p Params) String() string {
	switch p.Type {
	case Gaussian:
		return fmt.Sprintf("rbf(gamma=%g)", p.Gamma)
	case Linear:
		return "linear"
	case Polynomial:
		return fmt.Sprintf("polynomial(gamma=%g, coef0=%g, degree=%d)", p.Gamma, p.Coef0, p.Degree)
	case Sigmoid:
		return fmt.Sprintf("sigmoid(gamma=%g, coef0=%g)", p.Gamma, p.Coef0)
	default:
		return fmt.Sprintf("kernel(%d)", int(p.Type))
	}
}

// Eval computes Phi(a, b) for two sparse rows given their squared norms.
// For non-Gaussian kernels the norms are ignored.
func (p Params) Eval(a, b sparse.Row, normA, normB float64) float64 {
	return p.finishDot(sparse.DotRows(a, b), normA, normB)
}

// WeightedFinishDots accumulates sum_i coef[i] * Phi(dots[i]) with the
// kernel-type dispatch hoisted out of the per-element loop — finishDot is
// too large to inline, and a call per support vector is measurable next to
// the arithmetic. Each element evaluates exactly finishDot's expression in
// finishDot's operation order, and the sum accumulates in ascending i, so
// the result is bit-identical to looping over finishDot. Predict-time
// layouts that compute dot products outside the row engine
// (model.PackedSVs) map them to kernel values through it.
func (p Params) WeightedFinishDots(coef, dots, norms []float64, normB float64) float64 {
	var s float64
	switch p.Type {
	case Gaussian:
		for i, c := range coef {
			d2 := norms[i] + normB - 2*dots[i]
			if d2 < 0 {
				d2 = 0
			}
			s += c * math.Exp(-p.Gamma*d2)
		}
	case Linear:
		for i, c := range coef {
			s += c * dots[i]
		}
	case Polynomial:
		for i, c := range coef {
			s += c * powi(p.Gamma*dots[i]+p.Coef0, p.Degree)
		}
	case Sigmoid:
		for i, c := range coef {
			s += c * math.Tanh(p.Gamma*dots[i]+p.Coef0)
		}
	default:
		for i, c := range coef {
			s += c * p.finishDot(dots[i], norms[i], normB)
		}
	}
	return s
}

// finishDot maps a raw inner product <a, b> (plus the squared norms, used
// only by the Gaussian kernel) to the kernel value. It is the single place
// a dot product becomes Phi(a, b), shared by the pairwise Eval and the
// batched row engine so both paths are numerically identical.
func (p Params) finishDot(dot, normA, normB float64) float64 {
	switch p.Type {
	case Gaussian:
		d2 := normA + normB - 2*dot
		if d2 < 0 {
			d2 = 0 // guard against rounding for near-identical rows
		}
		return math.Exp(-p.Gamma * d2)
	case Linear:
		return dot
	case Polynomial:
		return powi(p.Gamma*dot+p.Coef0, p.Degree)
	case Sigmoid:
		return math.Tanh(p.Gamma*dot + p.Coef0)
	default:
		panic(fmt.Sprintf("kernel: Eval on unknown type %d", int(p.Type)))
	}
}

// powi is exact integer exponentiation by squaring (libsvm's powi): cheaper
// than math.Pow in the hot path and bit-deterministic across platforms,
// with the correct sign for negative bases at odd/even degrees. Degrees
// below 1 (rejected by Validate) return 1, matching base^0.
func powi(base float64, degree int) float64 {
	r := 1.0
	for t := base; degree > 0; degree >>= 1 {
		if degree&1 == 1 {
			r *= t
		}
		t *= t
	}
	return r
}

// Evaluator binds kernel parameters to a matrix, precomputing squared norms
// so that Gaussian evaluations between rows cost one sparse dot product.
type Evaluator struct {
	Params Params
	X      *sparse.Matrix
	norms  []float64
	evals  uint64 // number of kernel evaluations performed (for stats)
}

// NewEvaluator precomputes norms for x under params p.
func NewEvaluator(p Params, x *sparse.Matrix) *Evaluator {
	e := &Evaluator{Params: p, X: x}
	if p.Type == Gaussian {
		e.norms = x.SquaredNorms()
	}
	return e
}

// NewEvaluatorWithNorms is NewEvaluator for callers that already hold the
// squared norms of x (e.g. a model's warmed support-vector norm cache), so
// binding an evaluator costs nothing. Norms are only retained for the
// Gaussian kernel, matching NewEvaluator's behaviour.
func NewEvaluatorWithNorms(p Params, x *sparse.Matrix, norms []float64) *Evaluator {
	e := &Evaluator{Params: p, X: x}
	if p.Type == Gaussian {
		if len(norms) == x.Rows() {
			e.norms = norms
		} else {
			e.norms = x.SquaredNorms()
		}
	}
	return e
}

// SubEvaluator returns an evaluator sharing this evaluator's matrix and
// precomputed norms but with an independent evaluation counter. Parallel
// solvers give one sub-evaluator to each worker goroutine; the shared state
// is read-only so concurrent use of distinct sub-evaluators is safe.
func (e *Evaluator) SubEvaluator() *Evaluator {
	return &Evaluator{Params: e.Params, X: e.X, norms: e.norms}
}

// At evaluates Phi(x_i, x_j) for rows of the bound matrix.
func (e *Evaluator) At(i, j int) float64 {
	e.evals++
	var ni, nj float64
	if e.norms != nil {
		ni, nj = e.norms[i], e.norms[j]
	}
	return e.Params.Eval(e.X.RowView(i), e.X.RowView(j), ni, nj)
}

// Cross evaluates Phi(x_i, r) between row i of the bound matrix and an
// external row r with squared norm normR (pass 0 for non-Gaussian kernels).
func (e *Evaluator) Cross(i int, r sparse.Row, normR float64) float64 {
	e.evals++
	var ni float64
	if e.norms != nil {
		ni = e.norms[i]
	}
	return e.Params.Eval(e.X.RowView(i), r, ni, normR)
}

// Norm returns the precomputed squared norm of row i (0 if not Gaussian).
func (e *Evaluator) Norm(i int) float64 {
	if e.norms == nil {
		return 0
	}
	return e.norms[i]
}

// Evals returns the number of kernel evaluations performed so far.
// The evaluator is not safe for concurrent use; parallel solvers keep one
// evaluator per worker and sum the counters.
func (e *Evaluator) Evals() uint64 { return e.evals }

// ResetEvals zeroes the evaluation counter.
func (e *Evaluator) ResetEvals() { e.evals = 0 }

// SquaredNormOf computes the squared norm of an arbitrary row, for use with
// Cross when the row does not belong to the bound matrix.
func SquaredNormOf(r sparse.Row) float64 {
	var s float64
	for _, v := range r.Val {
		s += v * v
	}
	return s
}
