// Package cv implements k-fold cross validation and hyper-parameter grid
// search. The paper selected its Table III settings (C and the kernel
// width sigma^2) "by conducting a ten-fold cross validation ... using
// libsvm"; this package is that workflow, pluggable with either solver in
// this repository.
package cv

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/model"
	"repro/internal/sparse"
)

// Split is one cross-validation fold: indices into the full dataset.
type Split struct {
	TrainIdx []int
	TestIdx  []int
}

// StratifiedKFold partitions the samples into k folds after a
// deterministic shuffle, every sample in exactly one test fold. Each class
// is split on its own, so each fold keeps the overall class balance — important for skewed datasets like w7a
// (about 3% positive in the original).
func StratifiedKFold(y []float64, k int, seed int64) ([]Split, error) {
	if k < 2 {
		return nil, fmt.Errorf("cv: need at least 2 folds, got %d", k)
	}
	var pos, neg []int
	for i, v := range y {
		if v > 0 {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	if len(pos) < k || len(neg) < k {
		return nil, fmt.Errorf("cv: classes too small for %d folds (%d positive, %d negative)", k, len(pos), len(neg))
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
	rng.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })

	splits := make([]Split, k)
	assign := func(idx []int) {
		for f := 0; f < k; f++ {
			lo, hi := f*len(idx)/k, (f+1)*len(idx)/k
			splits[f].TestIdx = append(splits[f].TestIdx, idx[lo:hi]...)
		}
	}
	assign(pos)
	assign(neg)
	n := len(y)
	for f := range splits {
		inTest := make([]bool, n)
		for _, i := range splits[f].TestIdx {
			inTest[i] = true
		}
		for i := 0; i < n; i++ {
			if !inTest[i] {
				splits[f].TrainIdx = append(splits[f].TrainIdx, i)
			}
		}
		sort.Ints(splits[f].TestIdx)
	}
	return splits, nil
}

// TrainFunc trains a model on one fold. Implementations wrap
// core.TrainParallel or smo.Train with whatever fixed configuration the
// search is evaluating.
type TrainFunc func(x *sparse.Matrix, y []float64) (*model.Model, error)

// Result aggregates per-fold accuracies.
type Result struct {
	FoldAccuracies []float64 // percent
	Mean           float64
	Std            float64
}

// CrossValidate trains on each fold's training split and evaluates on its
// test split.
func CrossValidate(x *sparse.Matrix, y []float64, splits []Split, train TrainFunc) (Result, error) {
	if len(splits) == 0 {
		return Result{}, fmt.Errorf("cv: no splits")
	}
	var res Result
	for f, sp := range splits {
		trX, err := x.SelectRows(sp.TrainIdx)
		if err != nil {
			return Result{}, fmt.Errorf("cv: fold %d: %w", f, err)
		}
		teX, err := x.SelectRows(sp.TestIdx)
		if err != nil {
			return Result{}, fmt.Errorf("cv: fold %d: %w", f, err)
		}
		trY := selectLabels(y, sp.TrainIdx)
		teY := selectLabels(y, sp.TestIdx)
		m, err := train(trX, trY)
		if err != nil {
			return Result{}, fmt.Errorf("cv: fold %d: %w", f, err)
		}
		metrics, err := m.Evaluate(teX, teY)
		if err != nil {
			return Result{}, fmt.Errorf("cv: fold %d: %w", f, err)
		}
		res.FoldAccuracies = append(res.FoldAccuracies, metrics.Accuracy)
	}
	for _, a := range res.FoldAccuracies {
		res.Mean += a
	}
	res.Mean /= float64(len(res.FoldAccuracies))
	for _, a := range res.FoldAccuracies {
		res.Std += (a - res.Mean) * (a - res.Mean)
	}
	res.Std = math.Sqrt(res.Std / float64(len(res.FoldAccuracies)))
	return res, nil
}

func selectLabels(y []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for k, i := range idx {
		out[k] = y[i]
	}
	return out
}

// GridPoint is one hyper-parameter combination with its CV result.
type GridPoint struct {
	C      float64
	Sigma2 float64
	Result Result
}

// TrainAt builds a TrainFunc for one (C, sigma2) grid point.
type TrainAt func(c, sigma2 float64) TrainFunc

// GridSearch cross-validates every (C, sigma2) combination and returns all
// points plus the best one (highest mean accuracy; ties break toward
// smaller C, then smaller sigma2 — the less complex model).
func GridSearch(x *sparse.Matrix, y []float64, cs, sigma2s []float64, splits []Split, trainAt TrainAt) ([]GridPoint, GridPoint, error) {
	if len(cs) == 0 || len(sigma2s) == 0 {
		return nil, GridPoint{}, fmt.Errorf("cv: empty grid")
	}
	var points []GridPoint
	best := GridPoint{Result: Result{Mean: math.Inf(-1)}}
	for _, c := range cs {
		for _, s2 := range sigma2s {
			res, err := CrossValidate(x, y, splits, trainAt(c, s2))
			if err != nil {
				return nil, GridPoint{}, fmt.Errorf("cv: C=%g sigma2=%g: %w", c, s2, err)
			}
			pt := GridPoint{C: c, Sigma2: s2, Result: res}
			points = append(points, pt)
			if pt.Result.Mean > best.Result.Mean {
				best = pt
			}
		}
	}
	return points, best, nil
}

// LogGrid returns the classic libsvm-style geometric grid
// {base^lo, base^(lo+step), ..., base^hi}.
func LogGrid(base float64, lo, hi, step int) []float64 {
	if step <= 0 {
		step = 1
	}
	var out []float64
	for e := lo; e <= hi; e += step {
		out = append(out, math.Pow(base, float64(e)))
	}
	return out
}
