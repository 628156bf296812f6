package kernel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
)

func randomMatrix(seed int64, rows, cols int, density float64) *sparse.Matrix {
	rng := rand.New(rand.NewSource(seed))
	d := make([][]float64, rows)
	for i := range d {
		d[i] = make([]float64, cols)
		for j := range d[i] {
			if rng.Float64() < density {
				d[i][j] = rng.NormFloat64()
			}
		}
	}
	return sparse.FromDense(d)
}

func TestGaussianMatchesDirect(t *testing.T) {
	m := randomMatrix(1, 15, 10, 0.5)
	p := Params{Type: Gaussian, Gamma: 0.37}
	ev := NewEvaluator(p, m)
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Rows(); j++ {
			got := ev.At(i, j)
			want := math.Exp(-p.Gamma * m.SquaredDistance(i, j))
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("At(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestGaussianProperties(t *testing.T) {
	m := randomMatrix(2, 10, 8, 0.6)
	ev := NewEvaluator(Params{Type: Gaussian, Gamma: 0.5}, m)
	for i := 0; i < m.Rows(); i++ {
		if got := ev.At(i, i); math.Abs(got-1) > 1e-12 {
			t.Fatalf("K(%d,%d) = %v, want 1", i, i, got)
		}
		for j := 0; j < m.Rows(); j++ {
			v := ev.At(i, j)
			if v <= 0 || v > 1+1e-12 {
				t.Fatalf("K(%d,%d) = %v out of (0,1]", i, j, v)
			}
			if w := ev.At(j, i); math.Abs(v-w) > 1e-15 {
				t.Fatalf("asymmetric kernel: K(%d,%d)=%v K(%d,%d)=%v", i, j, v, j, i, w)
			}
		}
	}
}

func TestLinearKernel(t *testing.T) {
	m := randomMatrix(3, 8, 6, 0.7)
	ev := NewEvaluator(Params{Type: Linear}, m)
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Rows(); j++ {
			if got, want := ev.At(i, j), sparse.DotRows(m.RowView(i), m.RowView(j)); math.Abs(got-want) > 1e-14 {
				t.Fatalf("linear At(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestPolynomialKernel(t *testing.T) {
	m := sparse.FromDense([][]float64{{1, 2}, {3, -1}})
	ev := NewEvaluator(Params{Type: Polynomial, Gamma: 2, Coef0: 1, Degree: 3}, m)
	// <x0,x1> = 3-2 = 1; (2*1+1)^3 = 27
	if got := ev.At(0, 1); math.Abs(got-27) > 1e-12 {
		t.Fatalf("poly = %v, want 27", got)
	}
}

func TestSigmoidKernel(t *testing.T) {
	m := sparse.FromDense([][]float64{{1, 0}, {0.5, 0}})
	ev := NewEvaluator(Params{Type: Sigmoid, Gamma: 1, Coef0: -0.25}, m)
	want := math.Tanh(0.5 - 0.25)
	if got := ev.At(0, 1); math.Abs(got-want) > 1e-12 {
		t.Fatalf("sigmoid = %v, want %v", got, want)
	}
}

func TestCrossMatchesAt(t *testing.T) {
	m := randomMatrix(4, 12, 9, 0.4)
	ev := NewEvaluator(Params{Type: Gaussian, Gamma: 0.2}, m)
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Rows(); j++ {
			r := m.RowView(j)
			got := ev.Cross(i, r, SquaredNormOf(r))
			want := ev.At(i, j)
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("Cross(%d, row%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestFromSigma2(t *testing.T) {
	p := FromSigma2(64)
	if p.Type != Gaussian {
		t.Fatal("not gaussian")
	}
	if math.Abs(p.Gamma-1.0/128.0) > 1e-15 {
		t.Fatalf("gamma = %v, want 1/128", p.Gamma)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		p  Params
		ok bool
	}{
		{Params{Type: Gaussian, Gamma: 0.5}, true},
		{Params{Type: Gaussian, Gamma: 0}, false},
		{Params{Type: Gaussian, Gamma: -1}, false},
		{Params{Type: Linear}, true},
		{Params{Type: Polynomial, Gamma: 1, Degree: 2}, true},
		{Params{Type: Polynomial, Gamma: 1, Degree: 0}, false},
		{Params{Type: Sigmoid}, true},
		{Params{Type: Type(42)}, false},
	}
	for _, tc := range cases {
		err := tc.p.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("Validate(%v) error = %v, want ok=%v", tc.p, err, tc.ok)
		}
	}
}

func TestParseType(t *testing.T) {
	for _, name := range []string{"rbf", "gaussian", "linear", "polynomial", "poly", "sigmoid"} {
		if _, err := ParseType(name); err != nil {
			t.Errorf("ParseType(%q): %v", name, err)
		}
	}
	if _, err := ParseType("quantum"); err == nil {
		t.Error("ParseType accepted unknown kernel")
	}
}

func TestTypeStrings(t *testing.T) {
	pairs := map[Type]string{Gaussian: "rbf", Linear: "linear", Polynomial: "polynomial", Sigmoid: "sigmoid"}
	for ty, want := range pairs {
		if got := ty.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(ty), got, want)
		}
		back, err := ParseType(want)
		if err != nil || back != ty {
			t.Errorf("ParseType(%q) = %v, %v", want, back, err)
		}
	}
}

func TestEvalsCounter(t *testing.T) {
	m := randomMatrix(5, 5, 4, 0.5)
	ev := NewEvaluator(Params{Type: Gaussian, Gamma: 1}, m)
	for i := 0; i < 7; i++ {
		ev.At(0, i%m.Rows())
	}
	if ev.Evals() != 7 {
		t.Fatalf("Evals = %d, want 7", ev.Evals())
	}
	ev.ResetEvals()
	if ev.Evals() != 0 {
		t.Fatal("ResetEvals did not zero counter")
	}
}

// Property: Gaussian kernel matrices are positive semi-definite; check via
// random quadratic forms z^T K z >= 0.
func TestGaussianPSDQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		m := randomMatrix(seed+1000, n, 5, 0.6)
		ev := NewEvaluator(Params{Type: Gaussian, Gamma: 0.1 + rng.Float64()}, m)
		z := make([]float64, n)
		for i := range z {
			z[i] = rng.NormFloat64()
		}
		var q float64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				q += z[i] * z[j] * ev.At(i, j)
			}
		}
		return q >= -1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGaussianEval(b *testing.B) {
	m := randomMatrix(7, 2, 784, 0.19) // MNIST-like rows
	ev := NewEvaluator(Params{Type: Gaussian, Gamma: 0.02}, m)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ev.At(0, 1)
	}
}
