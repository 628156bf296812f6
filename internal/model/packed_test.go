package model

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/sparse"
)

// randSparse builds an n x cols CSR matrix with the given density, values
// in [-1, 1), deterministic under seed.
func randSparse(n, cols int, density float64, seed int64) *sparse.Matrix {
	rng := rand.New(rand.NewSource(seed))
	b := sparse.NewBuilder(cols)
	for i := 0; i < n; i++ {
		for c := 0; c < cols; c++ {
			if rng.Float64() < density {
				b.Add(c, 2*rng.Float64()-1)
			}
		}
		b.EndRow()
	}
	return b.Build()
}

// packedPair builds two structurally identical kernel models over the same
// support vectors, packing only the second.
func packedPair(t *testing.T, kp kernel.Params, n, cols int, density float64) (plain, packed *Model) {
	t.Helper()
	sv := randSparse(n, cols, density, 7)
	coef := make([]float64, n)
	rng := rand.New(rand.NewSource(8))
	for i := range coef {
		coef[i] = 2*rng.Float64() - 1
		if coef[i] == 0 {
			coef[i] = 0.5
		}
	}
	mk := func() *Model {
		return &Model{Kernel: kp, C: 10, SV: sv, Coef: coef, Beta: 0.31}
	}
	plain, packed = mk(), mk()
	if !packed.Pack(0) {
		t.Fatalf("Pack refused a %dx%d model under the default budget", n, cols)
	}
	if packed.PackedBytes() < int64(n*cols*8) {
		t.Fatalf("packed state: bytes=%d want >= %d", packed.PackedBytes(), n*cols*8)
	}
	return plain, packed
}

// TestPackedBitIdentical is the acceptance check: the packed dense block
// must reproduce the pooled row-engine path bit for bit, for every kernel
// family, on single and batched predictions, including query rows whose
// indices reach past the packed width.
func TestPackedBitIdentical(t *testing.T) {
	kernels := []kernel.Params{
		{Type: kernel.Gaussian, Gamma: 0.5},
		{Type: kernel.Linear},
		{Type: kernel.Polynomial, Gamma: 0.25, Coef0: 1, Degree: 3},
		{Type: kernel.Sigmoid, Gamma: 0.1, Coef0: -0.2},
	}
	// density 0.3 exercises the column-compressed scatter strategy,
	// 0.8 the unit-stride dense column stream.
	for _, density := range []float64{0.3, 0.8} {
		for _, kp := range kernels {
			t.Run(fmt.Sprintf("%s/density=%.1f", kp, density), func(t *testing.T) {
				plain, packed := packedPair(t, kp, 117, 63, density)
				// Queries wider than the SV matrix: the extra columns must pair
				// with implicit zeros, like the row engine's scratch fallback.
				q := randSparse(200, 80, density, 99)
				for i := 0; i < q.Rows(); i++ {
					row := q.RowView(i)
					a, b := plain.DecisionValue(row), packed.DecisionValue(row)
					if math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("row %d: plain %v (%x) != packed %v (%x)",
							i, a, math.Float64bits(a), b, math.Float64bits(b))
					}
				}
				for _, workers := range []int{1, 4} {
					da, db := plain.DecisionValues(q, workers), packed.DecisionValues(q, workers)
					for i := range da {
						if math.Float64bits(da[i]) != math.Float64bits(db[i]) {
							t.Fatalf("workers=%d row %d: plain %v != packed %v", workers, i, da[i], db[i])
						}
					}
				}
			})
		}
	}
}

// TestDecisionValuesRowsParity: the matrix-free batch entry point used by
// the request coalescer must agree bit for bit with the per-row path, on
// both the pooled-engine and packed layouts, serial and parallel.
func TestDecisionValuesRowsParity(t *testing.T) {
	plain, packed := packedPair(t, kernel.Params{Type: kernel.Gaussian, Gamma: 0.5}, 117, 63, 0.3)
	q := randSparse(200, 80, 0.3, 41)
	rows := make([]sparse.Row, q.Rows())
	for i := range rows {
		rows[i] = q.RowView(i)
	}
	for _, m := range []*Model{plain, packed} {
		for _, workers := range []int{1, 4} {
			got := m.DecisionValuesRows(rows, workers)
			if len(got) != len(rows) {
				t.Fatalf("workers=%d: %d values for %d rows", workers, len(got), len(rows))
			}
			for i, r := range rows {
				want := m.DecisionValue(r)
				if math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("packed=%v workers=%d row %d: got %v want %v", m.PackedBytes() > 0, workers, i, got[i], want)
				}
			}
		}
	}
	if got := plain.DecisionValuesRows(nil, 2); len(got) != 0 {
		t.Fatalf("nil rows: got %d values", len(got))
	}
	empty := &Model{Kernel: kernel.Params{Type: kernel.Gaussian, Gamma: 1}, Beta: 0.25}
	for i, v := range empty.DecisionValuesRows(rows[:3], 1) {
		if v != -0.25 {
			t.Fatalf("empty model row %d: got %v want -0.25", i, v)
		}
	}
}

func TestPackBudgetGate(t *testing.T) {
	sv := randSparse(32, 16, 0.5, 3)
	m := &Model{Kernel: kernel.Params{Type: kernel.Gaussian, Gamma: 1}, SV: sv, Coef: make([]float64, 32), Beta: 0}
	for i := range m.Coef {
		m.Coef[i] = 1
	}
	if m.Pack(32*16*8 - 1) {
		t.Fatal("Pack accepted a model one byte over budget")
	}
	if m.PackedBytes() != 0 {
		t.Fatal("failed Pack left packed state behind")
	}
	if !m.Pack(32 * 16 * 8) {
		t.Fatal("Pack refused a model exactly at budget")
	}
	if !m.Pack(1) {
		t.Fatal("Pack must be idempotent once packed")
	}
}

func TestPackSkipsLinearAndEmpty(t *testing.T) {
	lin := &Model{Kernel: kernel.Params{Type: kernel.Linear}, W: []float64{1, 2, 3}, Beta: 0}
	if lin.Pack(0) {
		t.Fatal("Pack accepted a W-only linear model")
	}
	empty := &Model{Kernel: kernel.Params{Type: kernel.Gaussian, Gamma: 1}}
	if empty.Pack(0) {
		t.Fatal("Pack accepted a model with no support vectors")
	}
}

// BenchmarkPackedVsEngine measures the packed layout against the pooled row
// engine on an mnist38-shaped model (784 columns, ~19% density, scatter
// strategy) and a forest-shaped one (54 columns, 90% density, dense column
// stream). Run with -bench PackedVsEngine.
func BenchmarkPackedVsEngine(b *testing.B) {
	kp := kernel.Params{Type: kernel.Gaussian, Gamma: 1.0 / 50}
	for _, shape := range []struct {
		name      string
		svs, cols int
		density   float64
	}{
		{"mnist38", 500, 784, 0.19},
		{"forest", 500, 54, 0.9},
	} {
		sv := randSparse(shape.svs, shape.cols, shape.density, 7)
		coef := make([]float64, shape.svs)
		for i := range coef {
			coef[i] = 0.5
		}
		q := randSparse(256, shape.cols, shape.density, 9)
		mk := func(pack bool) *Model {
			m := &Model{Kernel: kp, SV: sv, Coef: coef, Beta: 0}
			m.WarmNorms()
			if pack {
				m.Pack(0)
			}
			return m
		}
		for _, cfg := range []struct {
			name string
			m    *Model
		}{{"engine", mk(false)}, {"packed", mk(true)}} {
			b.Run(shape.name+"/"+cfg.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_ = cfg.m.DecisionValue(q.RowView(i % q.Rows()))
				}
			})
		}
	}
}
