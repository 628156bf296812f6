package probability

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/kernel"
)

func TestSigmoidP(t *testing.T) {
	s := Sigmoid{A: -1, B: 0} // P = 1/(1+exp(-f)): logistic in f
	if p := s.P(0); math.Abs(p-0.5) > 1e-12 {
		t.Fatalf("P(0) = %v, want 0.5", p)
	}
	if p := s.P(10); p < 0.99 {
		t.Fatalf("P(10) = %v, want ~1", p)
	}
	if p := s.P(-10); p > 0.01 {
		t.Fatalf("P(-10) = %v, want ~0", p)
	}
	// Monotone increasing in f for A < 0.
	prev := -1.0
	for f := -5.0; f <= 5; f += 0.25 {
		p := s.P(f)
		if p < prev {
			t.Fatalf("not monotone at f=%v", f)
		}
		prev = p
	}
}

func TestFitRecoversLogisticData(t *testing.T) {
	// Labels drawn from a known sigmoid: Fit should recover A, B roughly.
	rng := rand.New(rand.NewSource(1))
	trueS := Sigmoid{A: -2, B: 0.5}
	n := 5000
	f := make([]float64, n)
	y := make([]float64, n)
	for i := range f {
		f[i] = rng.NormFloat64() * 2
		if rng.Float64() < trueS.P(f[i]) {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	got, err := Fit(f, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.A-trueS.A) > 0.3 || math.Abs(got.B-trueS.B) > 0.3 {
		t.Fatalf("fit = %+v, want ~%+v", got, trueS)
	}
}

func TestFitSeparableDataIsNotOverconfident(t *testing.T) {
	// Perfectly separated decision values: the regularized targets must
	// keep probabilities strictly inside (0, 1).
	f := []float64{-3, -2, -1.5, 1.5, 2, 3}
	y := []float64{-1, -1, -1, 1, 1, 1}
	s, err := Fit(f, y)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range f {
		p := s.P(v)
		if p <= 0 || p >= 1 {
			t.Fatalf("P(%v) = %v out of (0,1)", v, p)
		}
	}
	if s.P(3) <= s.P(-3) {
		t.Fatalf("orientation wrong: P(3)=%v P(-3)=%v", s.P(3), s.P(-3))
	}
}

func TestFitValidation(t *testing.T) {
	if _, err := Fit([]float64{1}, []float64{1, -1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Fit(nil, nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Fit([]float64{1, 2}, []float64{1, 1}); err == nil {
		t.Error("single class accepted")
	}
	if _, err := Fit([]float64{1}, []float64{0.5}); err == nil {
		t.Error("non ±1 label accepted")
	}
}

func TestCalibrateEndToEnd(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.25)
	m, _, err := core.TrainParallel(ds.X, ds.Y, 2, core.Config{
		Kernel: kernel.FromSigma2(ds.Sigma2), C: ds.C, Eps: 1e-3, Heuristic: core.Multi5pc,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Calibrate on held-out decision values: the training set's are biased
	// toward ±1.
	dv := m.DecisionValues(ds.TestX, 0)
	s, err := Fit(dv, ds.TestY)
	if err != nil {
		t.Fatal(err)
	}
	// Probabilities must agree with the hard classifier on confident
	// points and be well calibrated on average: mean P over true
	// positives should be clearly above 0.5, below for negatives.
	var sumPos, sumNeg float64
	var nPos, nNeg int
	for i := 0; i < ds.TestX.Rows(); i++ {
		p := s.P(m.DecisionValue(ds.TestX.RowView(i)))
		if ds.TestY[i] > 0 {
			sumPos += p
			nPos++
		} else {
			sumNeg += p
			nNeg++
		}
	}
	if meanPos := sumPos / float64(nPos); meanPos < 0.8 {
		t.Fatalf("mean P(+|positive) = %v", meanPos)
	}
	if meanNeg := sumNeg / float64(nNeg); meanNeg > 0.2 {
		t.Fatalf("mean P(+|negative) = %v", meanNeg)
	}
	if _, err := Fit(dv, ds.TestY[:3]); err == nil {
		t.Error("mismatched labels accepted")
	}
}

// Property: fitted probabilities are always finite and inside [0, 1], and
// the sigmoid respects the sign convention (larger f => larger P) whenever
// the data is positively oriented.
func TestFitQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(100)
		fv := make([]float64, n)
		y := make([]float64, n)
		pos := false
		neg := false
		for i := range fv {
			fv[i] = rng.NormFloat64() * 3
			// Noisy but positively oriented labels.
			if rng.Float64() < 1/(1+math.Exp(-fv[i])) {
				y[i] = 1
				pos = true
			} else {
				y[i] = -1
				neg = true
			}
		}
		if !pos || !neg {
			return true // degenerate draw; Fit would reject it
		}
		s, err := Fit(fv, y)
		if err != nil {
			return false
		}
		for _, v := range fv {
			p := s.P(v)
			if math.IsNaN(p) || p < 0 || p > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
