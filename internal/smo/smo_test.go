package smo

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/sparse"
)

// tiny hand-checkable dataset: two separable clusters in 1-D.
func tinyData() (*sparse.Matrix, []float64) {
	x := sparse.FromDense([][]float64{
		{-2}, {-1.5}, {-1.2}, {1.2}, {1.5}, {2},
	})
	y := []float64{-1, -1, -1, 1, 1, 1}
	return x, y
}

func defaultCfg() Config {
	return Config{
		Kernel:  kernel.Params{Type: kernel.Gaussian, Gamma: 0.5},
		C:       10,
		Eps:     1e-3,
		Workers: 1,
	}
}

func TestTrainTinySeparable(t *testing.T) {
	x, y := tinyData()
	res, err := Train(x, y, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if err := res.Model.Validate(); err != nil {
		t.Fatal(err)
	}
	// The trained model must classify its own training set perfectly.
	mt, err := res.Model.Evaluate(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if mt.Accuracy != 100 {
		t.Fatalf("training accuracy = %v%%, want 100%%", mt.Accuracy)
	}
	if res.Model.NumSV() < 2 {
		t.Fatalf("only %d SVs", res.Model.NumSV())
	}
}

func TestTrainInputValidation(t *testing.T) {
	x, y := tinyData()
	cfg := defaultCfg()

	if _, err := Train(x, y[:3], cfg); err == nil {
		t.Error("mismatched labels accepted")
	}
	bad := cfg
	bad.C = 0
	if _, err := Train(x, y, bad); err == nil {
		t.Error("C=0 accepted")
	}
	bad = cfg
	bad.Kernel.Gamma = -1
	if _, err := Train(x, y, bad); err == nil {
		t.Error("invalid kernel accepted")
	}
	oneClass := []float64{1, 1, 1, 1, 1, 1}
	if _, err := Train(x, oneClass, cfg); err == nil {
		t.Error("single-class data accepted")
	}
	badLabels := []float64{0, 1, -1, 1, -1, 1}
	if _, err := Train(x, badLabels, cfg); err == nil {
		t.Error("non ±1 labels accepted")
	}
	small, _ := x.SubMatrix(0, 1)
	if _, err := Train(small, y[:1], cfg); err == nil {
		t.Error("n=1 accepted")
	}
}

func TestConvergenceQualityOnSyntheticData(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.2) // 400 samples
	cfg := Config{Kernel: kernel.FromSigma2(ds.Sigma2), C: ds.C, Eps: 1e-3, Workers: 2}
	res, err := Train(ds.X, ds.Y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("not converged")
	}
	if res.Objective <= 0 {
		t.Fatalf("dual objective = %v, want > 0", res.Objective)
	}
	mt, err := res.Model.Evaluate(ds.X, ds.Y)
	if err != nil {
		t.Fatal(err)
	}
	if mt.Accuracy < 90 {
		t.Fatalf("training accuracy = %v%%", mt.Accuracy)
	}
	if res.Model.SVFraction() >= 0.9 {
		t.Fatalf("SV fraction = %v; expected a small fraction of samples", res.Model.SVFraction())
	}
}

func TestParallelWorkersMatchSequential(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.15)
	cfgSeq := Config{Kernel: kernel.FromSigma2(ds.Sigma2), C: ds.C, Eps: 1e-3, Workers: 1}
	cfgPar := cfgSeq
	cfgPar.Workers = 4
	r1, err := Train(ds.X, ds.Y, cfgSeq)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Train(ds.X, ds.Y, cfgPar)
	if err != nil {
		t.Fatal(err)
	}
	// The gradient update is a pure map over disjoint chunks, so the
	// iterate sequence must be identical regardless of worker count.
	if r1.Iterations != r2.Iterations {
		t.Fatalf("iterations differ: %d vs %d", r1.Iterations, r2.Iterations)
	}
	if math.Abs(r1.Model.Beta-r2.Model.Beta) > 1e-12 {
		t.Fatalf("beta differs: %v vs %v", r1.Model.Beta, r2.Model.Beta)
	}
	if r1.Model.NumSV() != r2.Model.NumSV() {
		t.Fatalf("SV count differs: %d vs %d", r1.Model.NumSV(), r2.Model.NumSV())
	}
}

// TestCacheDoesNotChangeResult: with the cache off (-1), at a budget that
// evicts and at the default (0, 1 GiB) the model bytes are the same, and a
// cache that hits saves kernel evaluations.
func TestCacheDoesNotChangeResult(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.15)
	n := int64(ds.X.Rows())
	train := func(cacheBytes int64) (*Result, []byte) {
		cfg := Config{Kernel: kernel.FromSigma2(ds.Sigma2), C: ds.C, Eps: 1e-3, Workers: 2, CacheBytes: cacheBytes}
		r, err := Train(ds.X, ds.Y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := r.Model.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return r, buf.Bytes()
	}
	r1, want := train(-1)
	if r1.CacheHits != 0 {
		t.Fatalf("cache off but %d hits", r1.CacheHits)
	}
	for _, budget := range []int64{8 * n * 16, 0} {
		r2, got := train(budget)
		if r1.Iterations != r2.Iterations || !bytes.Equal(got, want) {
			t.Fatalf("budget %d changed the result: iters %d vs %d, model bytes equal %v",
				budget, r1.Iterations, r2.Iterations, bytes.Equal(got, want))
		}
		if r2.CacheHits == 0 {
			t.Fatalf("budget %d: cache enabled but never hit", budget)
		}
		if budget > 0 && r2.CacheEvictions == 0 {
			t.Fatalf("budget %d: a 16-row cache never evicted", budget)
		}
		if r2.KernelEvals >= r1.KernelEvals {
			t.Fatalf("budget %d: cache did not reduce kernel evals: %d vs %d", budget, r2.KernelEvals, r1.KernelEvals)
		}
	}
}

// TestCacheCountsEachLookupOnce: a cold run without shrinking looks up
// exactly two rows per iteration, i_up's and i_low's, so hits and misses
// must add up to twice the iteration count, at a budget that evicts, at
// one that holds every row and with the cache off.
func TestCacheCountsEachLookupOnce(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.15)
	n := int64(ds.X.Rows())
	for _, budget := range []int64{-1, 8 * n * 16, 8 * n * n} {
		cfg := Config{Kernel: kernel.FromSigma2(ds.Sigma2), C: ds.C, Eps: 1e-3, Workers: 2, CacheBytes: budget}
		r, err := Train(ds.X, ds.Y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		lookups := 2 * uint64(r.Iterations)
		if r.CacheHits+r.CacheMisses != lookups {
			t.Errorf("budget %d: %d hits + %d misses for %d lookups", budget, r.CacheHits, r.CacheMisses, lookups)
		}
		if budget > 0 && (r.CacheHits == 0 || r.CacheMisses == 0) {
			t.Errorf("budget %d: %d hits, %d misses; want both", budget, r.CacheHits, r.CacheMisses)
		}
	}
}

func TestShrinkingPreservesAccuracy(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.25)
	base := Config{Kernel: kernel.FromSigma2(ds.Sigma2), C: ds.C, Eps: 1e-3, Workers: 2}
	withShrink := base
	withShrink.Shrinking = true
	withShrink.ShrinkEvery = 50
	r1, err := Train(ds.X, ds.Y, base)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Train(ds.X, ds.Y, withShrink)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Converged {
		t.Fatal("shrinking run did not converge")
	}
	a1, _ := r1.Model.Evaluate(ds.TestX, ds.TestY)
	a2, _ := r2.Model.Evaluate(ds.TestX, ds.TestY)
	if math.Abs(a1.Accuracy-a2.Accuracy) > 2.0 {
		t.Fatalf("accuracy diverged: %v vs %v", a1.Accuracy, a2.Accuracy)
	}
	if math.Abs(r1.Objective-r2.Objective) > 1e-2*(1+math.Abs(r1.Objective)) {
		t.Fatalf("objective diverged: %v vs %v", r1.Objective, r2.Objective)
	}
}

func TestMaxIterStopsEarly(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.2)
	cfg := Config{Kernel: kernel.FromSigma2(ds.Sigma2), C: ds.C, Eps: 1e-6, Workers: 1}
	cfg.MaxIter = 10
	res, err := Train(ds.X, ds.Y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("claimed convergence after 10 iterations at eps=1e-6")
	}
	if res.Iterations != 10 {
		t.Fatalf("iterations = %d, want 10", res.Iterations)
	}
}

func TestDualObjectiveMonotoneOverEps(t *testing.T) {
	// Tighter eps must give an objective at least as large (we maximize W).
	ds := dataset.MustGenerate("blobs", 0.1)
	var last float64 = math.Inf(-1)
	for _, eps := range []float64{1e-1, 1e-2, 1e-3} {
		cfg := Config{Kernel: kernel.FromSigma2(ds.Sigma2), C: ds.C, Eps: eps, Workers: 1}
		res, err := Train(ds.X, ds.Y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Objective < last-1e-9 {
			t.Fatalf("objective decreased with tighter eps: %v after %v", res.Objective, last)
		}
		last = res.Objective
	}
}

func TestEqualityConstraintHolds(t *testing.T) {
	// sum alpha_i y_i = 0 must hold at the solution: recover it from the
	// model coefficients (coef_i = alpha_i*y_i).
	ds := dataset.MustGenerate("blobs", 0.2)
	cfg := Config{Kernel: kernel.FromSigma2(ds.Sigma2), C: ds.C, Eps: 1e-3, Workers: 2}
	res, err := Train(ds.X, ds.Y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, c := range res.Model.Coef {
		sum += c
	}
	if math.Abs(sum) > 1e-6*cfg.C {
		t.Fatalf("sum alpha_i y_i = %v, want ~0", sum)
	}
}

func TestSecondOrderSelectionConvergesFaster(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.25)
	base := Config{Kernel: kernel.FromSigma2(ds.Sigma2), C: ds.C, Eps: 1e-3, Workers: 2}
	second := base
	second.SecondOrder = true
	r1, err := Train(ds.X, ds.Y, base)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Train(ds.X, ds.Y, second)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Converged {
		t.Fatal("second-order run did not converge")
	}
	// Second-order selection should not take more iterations (usually
	// takes clearly fewer); allow a small margin for degenerate cases.
	if r2.Iterations > r1.Iterations*11/10 {
		t.Fatalf("second-order %d iterations vs first-order %d", r2.Iterations, r1.Iterations)
	}
	a1, _ := r1.Model.Evaluate(ds.TestX, ds.TestY)
	a2, _ := r2.Model.Evaluate(ds.TestX, ds.TestY)
	if math.Abs(a1.Accuracy-a2.Accuracy) > 2 {
		t.Fatalf("accuracy diverged: %v vs %v", a1.Accuracy, a2.Accuracy)
	}
	if math.Abs(r1.Objective-r2.Objective) > 1e-2*(1+math.Abs(r1.Objective)) {
		t.Fatalf("objective diverged: %v vs %v", r1.Objective, r2.Objective)
	}
}

func TestSecondOrderWithShrinking(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.2)
	cfg := Config{Kernel: kernel.FromSigma2(ds.Sigma2), C: ds.C, Eps: 1e-3, Workers: 2,
		SecondOrder: true, Shrinking: true, ShrinkEvery: 50}
	res, err := Train(ds.X, ds.Y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("not converged")
	}
	acc, _ := res.Model.Evaluate(ds.TestX, ds.TestY)
	if acc.Accuracy < 90 {
		t.Fatalf("accuracy %v", acc.Accuracy)
	}
}
