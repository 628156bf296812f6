package model

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/sparse"
)

// randomModel builds a synthetic RBF model with nsv support vectors and a
// matching random query matrix, both over dim features at the given density.
func randomModel(nsv, dim int, density float64, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	sv := randomMatrix(rng, nsv, dim, density)
	coef := make([]float64, nsv)
	for i := range coef {
		coef[i] = rng.Float64()*2 - 1
		if coef[i] == 0 {
			coef[i] = 0.5
		}
	}
	return &Model{
		Kernel:       kernel.Params{Type: kernel.Gaussian, Gamma: 0.25},
		C:            10,
		SV:           sv,
		Coef:         coef,
		Beta:         0.1,
		TrainSamples: nsv * 4,
	}
}

func randomMatrix(rng *rand.Rand, rows, dim int, density float64) *sparse.Matrix {
	b := sparse.NewBuilder(dim)
	for i := 0; i < rows; i++ {
		for j := 0; j < dim; j++ {
			if rng.Float64() < density {
				b.Add(j, rng.NormFloat64())
			}
		}
		b.EndRow()
	}
	return b.Build()
}

func TestDecisionValuesMatchesSequential(t *testing.T) {
	m := randomModel(60, 40, 0.3, 1)
	x := randomMatrix(rand.New(rand.NewSource(2)), 137, 40, 0.3)
	want := make([]float64, x.Rows())
	for i := range want {
		want[i] = m.DecisionValue(x.RowView(i))
	}
	for _, workers := range []int{0, 1, 2, 3, 8, 1000} {
		got := m.DecisionValues(x, workers)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("workers=%d: row %d: %v != %v", workers, i, got[i], want[i])
			}
		}
	}
}

func TestDecisionValuesSignMatchesPredict(t *testing.T) {
	m := randomModel(40, 20, 0.4, 3)
	x := randomMatrix(rand.New(rand.NewSource(4)), 63, 20, 0.4)
	for i, v := range m.DecisionValues(x, 4) {
		if want := m.Predict(x.RowView(i)); (v >= 0) != (want == 1) {
			t.Fatalf("row %d: decision %v, Predict %v", i, v, want)
		}
	}
}

func TestDecisionValuesEmpty(t *testing.T) {
	m := randomModel(10, 5, 0.5, 5)
	x := sparse.NewBuilder(5).Build()
	if got := m.DecisionValues(x, 4); len(got) != 0 {
		t.Fatalf("got %d values for empty matrix", len(got))
	}
}

func TestDecisionValuesOnRowRangeView(t *testing.T) {
	m := randomModel(30, 25, 0.3, 6)
	x := randomMatrix(rand.New(rand.NewSource(7)), 50, 25, 0.3)
	view, err := x.RowRangeView(10, 35)
	if err != nil {
		t.Fatal(err)
	}
	got := m.DecisionValues(view, 3)
	if len(got) != 25 {
		t.Fatalf("got %d values for 25-row view", len(got))
	}
	for k := range got {
		want := m.DecisionValue(x.RowView(10 + k))
		if math.Abs(got[k]-want) > 1e-12 {
			t.Fatalf("view row %d: %v != %v", k, got[k], want)
		}
	}
}

func TestProbabilityFromDecisionMatchesProbability(t *testing.T) {
	m := randomModel(20, 10, 0.5, 8)
	m.ProbA, m.ProbB, m.HasProb = -1.7, 0.2, true
	x := randomMatrix(rand.New(rand.NewSource(9)), 11, 10, 0.5)
	for i := 0; i < x.Rows(); i++ {
		row := x.RowView(i)
		direct, _ := m.Probability(row)
		viaDV, ok := m.ProbabilityFromDecision(m.DecisionValue(row))
		if !ok || math.Abs(direct-viaDV) > 1e-15 {
			t.Fatalf("row %d: %v != %v", i, direct, viaDV)
		}
	}
	m.HasProb = false
	if _, ok := m.ProbabilityFromDecision(0.5); ok {
		t.Fatal("uncalibrated model reported a probability")
	}
}

// Benchmarks for the serving hot path. BenchmarkDecisionValuesSequential is
// the per-row loop the server replaces; BenchmarkDecisionValuesParallel is
// the worker-pool batch path (on a multi-core host it should win roughly
// linearly until memory bandwidth saturates).

func benchModelAndRows(b *testing.B) (*Model, *sparse.Matrix) {
	b.Helper()
	m := randomModel(400, 100, 0.2, 42)
	x := randomMatrix(rand.New(rand.NewSource(43)), 512, 100, 0.2)
	m.WarmNorms()
	return m, x
}

func BenchmarkDecisionValuesSequential(b *testing.B) {
	m, x := benchModelAndRows(b)
	out := make([]float64, x.Rows())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < x.Rows(); r++ {
			out[r] = m.DecisionValue(x.RowView(r))
		}
	}
	b.ReportMetric(float64(x.Rows())*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkDecisionValuesParallel(b *testing.B) {
	m, x := benchModelAndRows(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.DecisionValues(x, 0)
	}
	b.ReportMetric(float64(x.Rows())*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
