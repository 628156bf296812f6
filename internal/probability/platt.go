// Package probability fits Platt-style probabilistic outputs for SVM
// decision values: P(y=+1 | f) = 1/(1 + exp(A*f + B)), with (A, B)
// estimated by the regularized maximum-likelihood procedure of Lin, Lin &
// Weng ("A note on Platt's probabilistic outputs for support vector
// machines", 2007) — the algorithm inside libsvm's -b 1. The paper's
// pipeline produces hard classifiers; this package adds the calibrated
// confidence scores downstream applications usually want.
package probability

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cv"
	"repro/internal/sparse"
)

// Sigmoid holds fitted Platt parameters.
type Sigmoid struct {
	A, B float64
}

// P returns P(y=+1 | decision value f).
func (s Sigmoid) P(f float64) float64 {
	fApB := s.A*f + s.B
	// Stable formulation from the reference implementation.
	if fApB >= 0 {
		return math.Exp(-fApB) / (1 + math.Exp(-fApB))
	}
	return 1 / (1 + math.Exp(fApB))
}

// Fit estimates the sigmoid from decision values and ±1 labels using
// Newton's method with backtracking line search, exactly following the
// reference pseudo-code (including the regularized targets that prevent
// overconfident probabilities on separable data).
func Fit(decisionValues, y []float64) (Sigmoid, error) {
	if len(decisionValues) != len(y) {
		return Sigmoid{}, fmt.Errorf("probability: %d decision values for %d labels", len(decisionValues), len(y))
	}
	if len(y) == 0 {
		return Sigmoid{}, errors.New("probability: empty input")
	}
	var nPos, nNeg float64
	for _, v := range y {
		switch v {
		case 1:
			nPos++
		case -1:
			nNeg++
		default:
			return Sigmoid{}, fmt.Errorf("probability: label %v, want +1 or -1", v)
		}
	}
	if nPos == 0 || nNeg == 0 {
		return Sigmoid{}, errors.New("probability: need both classes to calibrate")
	}

	const (
		maxIter = 100
		minStep = 1e-10
		sigma   = 1e-12 // Hessian ridge
		epsFun  = 1e-5
	)
	hiTarget := (nPos + 1) / (nPos + 2)
	loTarget := 1 / (nNeg + 2)
	n := len(y)
	t := make([]float64, n)
	for i := range t {
		if y[i] > 0 {
			t[i] = hiTarget
		} else {
			t[i] = loTarget
		}
	}

	a, b := 0.0, math.Log((nNeg+1)/(nPos+1))
	fval := 0.0
	for i := 0; i < n; i++ {
		fApB := decisionValues[i]*a + b
		if fApB >= 0 {
			fval += t[i]*fApB + math.Log1p(math.Exp(-fApB))
		} else {
			fval += (t[i]-1)*fApB + math.Log1p(math.Exp(fApB))
		}
	}

	for iter := 0; iter < maxIter; iter++ {
		// Gradient and Hessian.
		h11, h22, h21 := sigma, sigma, 0.0
		g1, g2 := 0.0, 0.0
		for i := 0; i < n; i++ {
			fApB := decisionValues[i]*a + b
			var p, q float64
			if fApB >= 0 {
				p = math.Exp(-fApB) / (1 + math.Exp(-fApB))
				q = 1 / (1 + math.Exp(-fApB))
			} else {
				p = 1 / (1 + math.Exp(fApB))
				q = math.Exp(fApB) / (1 + math.Exp(fApB))
			}
			d2 := p * q
			h11 += decisionValues[i] * decisionValues[i] * d2
			h22 += d2
			h21 += decisionValues[i] * d2
			d1 := t[i] - p
			g1 += decisionValues[i] * d1
			g2 += d1
		}
		if math.Abs(g1) < epsFun && math.Abs(g2) < epsFun {
			break
		}
		// Newton direction.
		det := h11*h22 - h21*h21
		dA := -(h22*g1 - h21*g2) / det
		dB := -(-h21*g1 + h11*g2) / det
		gd := g1*dA + g2*dB

		// Backtracking line search.
		step := 1.0
		for step >= minStep {
			newA, newB := a+step*dA, b+step*dB
			newF := 0.0
			for i := 0; i < n; i++ {
				fApB := decisionValues[i]*newA + newB
				if fApB >= 0 {
					newF += t[i]*fApB + math.Log1p(math.Exp(-fApB))
				} else {
					newF += (t[i]-1)*fApB + math.Log1p(math.Exp(fApB))
				}
			}
			if newF < fval+1e-4*step*gd {
				a, b, fval = newA, newB, newF
				break
			}
			step /= 2
		}
		if step < minStep {
			break // line search failed: accept current point
		}
	}
	return Sigmoid{A: a, B: b}, nil
}

// CalibrateCV fits a sigmoid from out-of-fold decision values: for each
// fold, a model trained on the remaining folds scores the held-out fold.
// This is how libsvm's -b 1 avoids the bias of calibrating on in-sample
// decision values (which cluster at ±1 on the support vectors).
func CalibrateCV(x *sparse.Matrix, y []float64, splits []cv.Split, train cv.TrainFunc) (Sigmoid, error) {
	if len(splits) == 0 {
		return Sigmoid{}, errors.New("probability: no folds")
	}
	dv := make([]float64, 0, len(y))
	lab := make([]float64, 0, len(y))
	for f, sp := range splits {
		trX, err := x.SelectRows(sp.TrainIdx)
		if err != nil {
			return Sigmoid{}, fmt.Errorf("probability: fold %d: %w", f, err)
		}
		trY := make([]float64, len(sp.TrainIdx))
		for k, i := range sp.TrainIdx {
			trY[k] = y[i]
		}
		m, err := train(trX, trY)
		if err != nil {
			return Sigmoid{}, fmt.Errorf("probability: fold %d: %w", f, err)
		}
		teX, err := x.SelectRows(sp.TestIdx)
		if err != nil {
			return Sigmoid{}, fmt.Errorf("probability: fold %d: %w", f, err)
		}
		dv = append(dv, m.DecisionValues(teX, 0)...)
		for _, i := range sp.TestIdx {
			lab = append(lab, y[i])
		}
	}
	return Fit(dv, lab)
}
