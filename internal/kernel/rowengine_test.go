package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/sparse"
)

// allKernels covers every kernel family the row engine must reproduce.
var allKernels = []Params{
	{Type: Gaussian, Gamma: 0.37},
	{Type: Linear},
	{Type: Polynomial, Gamma: 0.5, Coef0: 1, Degree: 3},
	{Type: Sigmoid, Gamma: 0.25, Coef0: -0.5},
}

// rowEngineMatrix builds a matrix exercising the row-engine edge cases:
// empty rows, single-entry rows, and mixed densities.
func rowEngineMatrix(seed int64, rows, cols int) *sparse.Matrix {
	rng := rand.New(rand.NewSource(seed))
	d := make([][]float64, rows)
	for i := range d {
		d[i] = make([]float64, cols)
		switch i % 4 {
		case 0: // empty row
		case 1: // single non-zero
			d[i][rng.Intn(cols)] = rng.NormFloat64()
		case 2: // sparse
			for j := range d[i] {
				if rng.Float64() < 0.1 {
					d[i][j] = rng.NormFloat64()
				}
			}
		default: // dense
			for j := range d[i] {
				if rng.Float64() < 0.8 {
					d[i][j] = rng.NormFloat64()
				}
			}
		}
	}
	m := sparse.FromDense(d)
	m.Cols = cols // FromDense may infer fewer columns from trailing zeros
	return m
}

func TestRowIntoMatchesPairwise(t *testing.T) {
	m := rowEngineMatrix(11, 40, 25)
	targets := make([]int, m.Rows())
	for i := range targets {
		targets[i] = i
	}
	for _, p := range allKernels {
		ev := NewEvaluator(p, m)
		var scr Scratch
		dst := make([]float64, m.Rows())
		rng := make([]float64, m.Rows())
		for pi := 0; pi < m.Rows(); pi++ {
			pivot := m.RowView(pi)
			norm := SquaredNormOf(pivot)
			ev.RowInto(&scr, pivot, norm, targets, dst)
			ev.RowRangeInto(&scr, pivot, norm, 0, m.Rows(), rng)
			for _, i := range targets {
				want := ev.At(i, pi)
				if math.Abs(dst[i]-want) > 1e-12 {
					t.Fatalf("%v: RowInto pivot %d target %d = %v, want %v", p, pi, i, dst[i], want)
				}
				if dst[i] != rng[i] {
					t.Fatalf("%v: RowRangeInto disagrees with RowInto at (%d,%d)", p, pi, i)
				}
			}
		}
	}
}

func TestPairRowsIntoMatchesTwoRows(t *testing.T) {
	m := rowEngineMatrix(12, 30, 20)
	targets := make([]int, m.Rows())
	for i := range targets {
		targets[i] = i
	}
	for _, p := range allKernels {
		ev := NewEvaluator(p, m)
		var scr Scratch
		up, low := m.RowView(3), m.RowView(7)
		nu, nl := SquaredNormOf(up), SquaredNormOf(low)
		dstU := make([]float64, m.Rows())
		dstL := make([]float64, m.Rows())
		ev.PairRowsInto(&scr, up, low, nu, nl, targets, dstU, dstL)
		oneU := make([]float64, m.Rows())
		oneL := make([]float64, m.Rows())
		ev.RowInto(&scr, up, nu, targets, oneU)
		ev.RowInto(&scr, low, nl, targets, oneL)
		for _, i := range targets {
			if dstU[i] != oneU[i] || dstL[i] != oneL[i] {
				t.Fatalf("%v: fused pair disagrees with two row passes at target %d", p, i)
			}
			if want := ev.Cross(i, up, nu); math.Abs(dstU[i]-want) > 1e-12 {
				t.Fatalf("%v: PairRowsInto up target %d = %v, want %v", p, i, dstU[i], want)
			}
		}
	}
}

// An external pivot whose max column index exceeds the matrix's declared
// column count must still evaluate exactly (scratch grows to cover it).
func TestRowIntoWidePivot(t *testing.T) {
	m := rowEngineMatrix(13, 12, 10)
	pivot := sparse.Row{Idx: []int32{0, 4, 17}, Val: []float64{1.5, -2, 0.75}}
	norm := SquaredNormOf(pivot)
	targets := []int{0, 3, 5, 9, 11}
	for _, p := range allKernels {
		ev := NewEvaluator(p, m)
		var scr Scratch
		dst := make([]float64, len(targets))
		ev.RowInto(&scr, pivot, norm, targets, dst)
		for k, i := range targets {
			want := ev.Cross(i, pivot, norm)
			if math.Abs(dst[k]-want) > 1e-12 {
				t.Fatalf("%v: wide pivot target %d = %v, want %v", p, i, dst[k], want)
			}
		}
	}
}

// A target row whose max column index reaches past the scratch dimension
// (possible when the matrix understates Cols) must fall back to the exact
// two-pointer dot rather than read out of bounds.
func TestRowIntoTargetBeyondScratch(t *testing.T) {
	m := &sparse.Matrix{
		RowPtr: []int64{0, 2, 5},
		ColIdx: []int32{0, 2, 1, 2, 8},
		Val:    []float64{1, -1, 2, 0.5, 3},
		Cols:   3, // understated: row 1 reaches column 8
	}
	pivot := m.RowView(0)
	norm := SquaredNormOf(pivot)
	for _, p := range allKernels {
		ev := NewEvaluator(p, m)
		var scr Scratch
		dst := make([]float64, 2)
		ev.RowInto(&scr, pivot, norm, []int{0, 1}, dst)
		for i := 0; i < 2; i++ {
			want := ev.Cross(i, pivot, norm)
			if math.Abs(dst[i]-want) > 1e-12 {
				t.Fatalf("%v: overflow target %d = %v, want %v", p, i, dst[i], want)
			}
		}
	}
}

func TestDiagIntoMatchesAt(t *testing.T) {
	m := rowEngineMatrix(14, 20, 12)
	for _, p := range allKernels {
		ev := NewEvaluator(p, m)
		want := make([]float64, m.Rows())
		for i := range want {
			want[i] = ev.At(i, i)
		}
		got := make([]float64, m.Rows())
		ev.DiagInto(got)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("%v: DiagInto[%d] = %v, want %v", p, i, got[i], want[i])
			}
		}
	}
}

func TestRowEngineEvalCounters(t *testing.T) {
	m := rowEngineMatrix(15, 16, 10)
	ev := NewEvaluator(Params{Type: Gaussian, Gamma: 0.5}, m)
	var scr Scratch
	targets := []int{0, 2, 4, 6}
	dst := make([]float64, len(targets))
	ev.RowInto(&scr, m.RowView(1), ev.Norm(1), targets, dst)
	if got := ev.Evals(); got != 4 {
		t.Fatalf("RowInto counted %d evals, want 4", got)
	}
	ev.ResetEvals()
	dst2 := make([]float64, len(targets))
	ev.PairRowsInto(&scr, m.RowView(1), m.RowView(2), ev.Norm(1), ev.Norm(2), targets, dst, dst2)
	if got := ev.Evals(); got != 8 {
		t.Fatalf("PairRowsInto counted %d evals, want 8", got)
	}
	ev.ResetEvals()
	diag := make([]float64, m.Rows())
	ev.DiagInto(diag)
	if got := ev.Evals(); got != uint64(m.Rows()) {
		t.Fatalf("DiagInto counted %d evals, want %d", got, m.Rows())
	}
}

func TestRowPoolMatchesSequential(t *testing.T) {
	m := rowEngineMatrix(16, 600, 40) // above minParallelTargets
	ev := NewEvaluator(Params{Type: Gaussian, Gamma: 0.3}, m)
	pool := NewRowPool(ev, 4)
	n := m.Rows()
	targets := make([]int, n)
	for i := range targets {
		targets[i] = i
	}
	pivotU, pivotL := m.RowView(5), m.RowView(9)
	nu, nl := ev.Norm(5), ev.Norm(9)

	var scr Scratch
	wantU := make([]float64, n)
	wantL := make([]float64, n)
	ev.RowInto(&scr, pivotU, nu, targets, wantU)
	ev.RowInto(&scr, pivotL, nl, targets, wantL)

	gotU := make([]float64, n)
	gotL := make([]float64, n)
	pool.RowInto(pivotU, nu, targets, gotU)
	for i := range wantU {
		if gotU[i] != wantU[i] {
			t.Fatalf("pool.RowInto[%d] = %v, want %v", i, gotU[i], wantU[i])
		}
	}
	if got := pool.Evals(); got != uint64(n) {
		t.Fatalf("pool counted %d evals, want %d", got, n)
	}
	pool.PairRowsInto(pivotU, pivotL, nu, nl, targets, gotU, gotL)
	for i := range wantU {
		if gotU[i] != wantU[i] || gotL[i] != wantL[i] {
			t.Fatalf("pool.PairRowsInto[%d] = (%v,%v), want (%v,%v)", i, gotU[i], gotL[i], wantU[i], wantL[i])
		}
	}
	pool.ResetEvals()
	if pool.Evals() != 0 {
		t.Fatal("ResetEvals did not zero pool counters")
	}
}

// Hammer the concurrent fill paths under -race: a row pool serving batches
// while independent workers run their own (SubEvaluator, Scratch) pairs
// over the same shared matrix.
func TestRowEngineConcurrentHammer(t *testing.T) {
	m := rowEngineMatrix(17, 400, 30)
	ev := NewEvaluator(Params{Type: Gaussian, Gamma: 0.4}, m)
	n := m.Rows()
	targets := make([]int, n)
	for i := range targets {
		targets[i] = i
	}
	var wg sync.WaitGroup
	pool := NewRowPool(ev.SubEvaluator(), 4)
	wg.Add(1)
	go func() {
		defer wg.Done()
		dstU := make([]float64, n)
		dstL := make([]float64, n)
		for rep := 0; rep < 20; rep++ {
			pool.RowInto(m.RowView(rep%n), ev.Norm(rep%n), targets, dstU)
			pool.PairRowsInto(m.RowView(rep%n), m.RowView((rep+1)%n),
				ev.Norm(rep%n), ev.Norm((rep+1)%n), targets, dstU, dstL)
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sub := ev.SubEvaluator()
			var scr Scratch
			dst := make([]float64, n)
			for rep := 0; rep < 20; rep++ {
				pi := (g*31 + rep) % n
				sub.RowInto(&scr, m.RowView(pi), ev.Norm(pi), targets, dst)
				want := sub.At(pi, targets[rep%n])
				if math.Abs(dst[rep%n]-want) > 1e-12 {
					t.Errorf("worker %d rep %d: got %v, want %v", g, rep, dst[rep%n], want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestPowiMatchesPow(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for rep := 0; rep < 1000; rep++ {
		base := rng.Float64() * 10
		deg := 1 + rng.Intn(12)
		got := powi(base, deg)
		want := math.Pow(base, float64(deg))
		tol := 1e-12 * math.Max(1, math.Abs(want))
		if math.Abs(got-want) > tol {
			t.Fatalf("powi(%v, %d) = %v, want %v", base, deg, got, want)
		}
	}
}

// math.Pow is exact here too, but the regression pins the sign convention:
// negative bases raised to odd degrees stay negative, even degrees positive.
func TestPowiNegativeBase(t *testing.T) {
	cases := []struct {
		base float64
		deg  int
		want float64
	}{
		{-2, 2, 4},
		{-2, 3, -8},
		{-1.5, 4, 5.0625},
		{-1, 5, -1},
		{-3, 1, -3},
	}
	for _, c := range cases {
		if got := powi(c.base, c.deg); math.Abs(got-c.want) > 1e-12*math.Abs(c.want) {
			t.Fatalf("powi(%v, %d) = %v, want %v", c.base, c.deg, got, c.want)
		}
	}
	// Polynomial kernel end to end: gamma*dot+coef0 < 0 at odd degree.
	p := Params{Type: Polynomial, Gamma: 1, Coef0: -3, Degree: 3}
	a := sparse.Row{Idx: []int32{0}, Val: []float64{1}}
	b := sparse.Row{Idx: []int32{0}, Val: []float64{1}}
	if got, want := p.Eval(a, b, 0, 0), -8.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("polynomial Eval with negative base = %v, want %v", got, want)
	}
}

func TestLambdaBatched(t *testing.T) {
	m := randomMatrix(22, 100, 50, 0.2)
	ev := NewEvaluator(Params{Type: Gaussian, Gamma: 0.5}, m)
	l := ev.LambdaBatched(5 * time.Millisecond)
	if l <= 0 || l > 1e-3 {
		t.Fatalf("implausible batched lambda: %v", l)
	}
}

// benchMatrix mimics a sparse dataset slice for the row benchmarks.
func benchMatrix(b *testing.B, rows, cols int, density float64) *sparse.Matrix {
	b.Helper()
	return randomMatrix(77, rows, cols, density)
}

func BenchmarkRowPairwise(b *testing.B) {
	m := benchMatrix(b, 512, 300, 0.1)
	ev := NewEvaluator(Params{Type: Gaussian, Gamma: 0.1}, m)
	pivot := m.RowView(0)
	norm := ev.Norm(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < m.Rows(); j++ {
			_ = ev.Cross(j, pivot, norm)
		}
	}
}

func BenchmarkRowInto(b *testing.B) {
	m := benchMatrix(b, 512, 300, 0.1)
	ev := NewEvaluator(Params{Type: Gaussian, Gamma: 0.1}, m)
	pivot := m.RowView(0)
	norm := ev.Norm(0)
	var scr Scratch
	dst := make([]float64, m.Rows())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.RowRangeInto(&scr, pivot, norm, 0, m.Rows(), dst)
	}
}

func BenchmarkPairRowsInto(b *testing.B) {
	m := benchMatrix(b, 512, 300, 0.1)
	ev := NewEvaluator(Params{Type: Gaussian, Gamma: 0.1}, m)
	up, low := m.RowView(0), m.RowView(1)
	nu, nl := ev.Norm(0), ev.Norm(1)
	targets := make([]int, m.Rows())
	for i := range targets {
		targets[i] = i
	}
	var scr Scratch
	dstU := make([]float64, m.Rows())
	dstL := make([]float64, m.Rows())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.PairRowsInto(&scr, up, low, nu, nl, targets, dstU, dstL)
	}
}

// BenchmarkRowPoolFanOut times RowPool's two paths at each batch size, to
// place minParallelTargets: "serial" is one Evaluator batch on the calling
// goroutine, "fanout" chunks the targets across the pool's workers with a
// WaitGroup. Run it with -cpu 2 for a two-worker pool on two processors.
// Two row shapes: cod-rna's 8 dense features, where a target costs little
// more than its exp, and mnist38's 784 features at 19% density.
func BenchmarkRowPoolFanOut(b *testing.B) {
	shapes := []struct {
		name    string
		cols    int
		density float64
	}{{"dense8", 8, 1}, {"mnist784", 784, 0.19}}
	modes := []struct {
		name        string
		minParallel int
	}{{"serial", math.MaxInt}, {"fanout", 0}}
	for _, sh := range shapes {
		m := benchMatrix(b, 4096, sh.cols, sh.density)
		ev := NewEvaluator(Params{Type: Gaussian, Gamma: 0.1}, m)
		pool := NewRowPool(ev, 2)
		up, low := m.RowView(0), m.RowView(1)
		nu, nl := ev.Norm(0), ev.Norm(1)
		dstU, dstL := make([]float64, m.Rows()), make([]float64, m.Rows())
		for n := 64; n <= 4096; n *= 2 {
			targets := make([]int, n)
			for i := range targets {
				targets[i] = i * m.Rows() / n // spread over the matrix, as an active list is
			}
			for _, md := range modes {
				b.Run(fmt.Sprintf("%s/row/n=%d/%s", sh.name, n, md.name), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						pool.rowInto(up, nu, targets, dstU, md.minParallel)
					}
				})
				b.Run(fmt.Sprintf("%s/pair/n=%d/%s", sh.name, n, md.name), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						pool.pairRowsInto(up, low, nu, nl, targets, dstU, dstL, md.minParallel)
					}
				})
			}
		}
	}
}
