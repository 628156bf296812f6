package cache

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/kernel"
	"repro/internal/sparse"
)

// rowsFixture is a Rows over a small random matrix, with a separate
// evaluator to compute the reference rows.
type rowsFixture struct {
	t    *testing.T
	x    *sparse.Matrix
	pool *kernel.RowPool
	ref  *kernel.Evaluator
	rows *Rows
}

func newRowsFixture(t *testing.T, n int, budget int64) *rowsFixture {
	rng := rand.New(rand.NewSource(7))
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, 6)
		for j := range d[i] {
			if rng.Float64() < 0.6 {
				d[i][j] = rng.NormFloat64()
			}
		}
	}
	x := sparse.FromDense(d)
	p := kernel.Params{Type: kernel.Gaussian, Gamma: 0.4}
	pool := kernel.NewRowPool(kernel.NewEvaluator(p, x), 1)
	return &rowsFixture{t: t, x: x, pool: pool, ref: kernel.NewEvaluator(p, x), rows: NewRows(pool, budget, n, n)}
}

// row is Rows.Row for sample key as its own pivot.
func (f *rowsFixture) row(side, key int, actives []int) []float64 {
	return f.rows.Row(side, key, f.x.RowView(key), f.ref.Norm(key), actives)
}

// evals returns the evaluations the store made since the last call.
func (f *rowsFixture) evals() uint64 {
	n := f.pool.Evals()
	f.pool.ResetEvals()
	return n
}

// check fails unless row holds, bit for bit, RowInto's values for pivot
// key at every index in actives.
func (f *rowsFixture) check(what string, key int, row []float64, actives []int) {
	f.t.Helper()
	want := make([]float64, len(actives))
	f.ref.RowInto(&kernel.Scratch{}, f.x.RowView(key), f.ref.Norm(key), actives, want)
	for k, i := range actives {
		if math.Float64bits(row[i]) != math.Float64bits(want[k]) {
			f.t.Fatalf("%s: row %d entry %d = %v, want %v", what, key, i, row[i], want[k])
		}
	}
}

// wantEvals fails unless the store made want evaluations since the last
// call.
func (f *rowsFixture) wantEvals(what string, want int) {
	f.t.Helper()
	if got := f.evals(); got != uint64(want) {
		f.t.Fatalf("%s: %d evaluations, want %d", what, got, want)
	}
}

func TestRowsCompletion(t *testing.T) {
	const n = 12
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	shrunk := []int{0, 2, 3, 5, 8, 11}
	for _, tc := range []struct {
		name   string
		budget int64
		cached bool // the budget holds a row
		pairs  bool // the budget holds a pair's two rows
	}{
		{"off", -1, false, false},
		{"one row", 8 * n, true, false},
		{"ample", 8 * n * n, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newRowsFixture(t, n, tc.budget)

			// A fresh row is filled over the actives, one evaluation each.
			row := f.row(0, 3, shrunk)
			f.check("fresh", 3, row, shrunk)
			f.wantEvals("fresh", len(shrunk))

			// A row completed in this generation is returned as it is: a
			// NaN planted at an active entry stays, so nothing rescans it.
			refill := len(shrunk)
			if tc.cached {
				refill = 0
			}
			saved := row[5]
			row[5] = math.NaN()
			again := f.row(0, 3, shrunk)
			f.wantEvals("repeat", refill)
			if tc.cached && (&again[0] != &row[0] || !math.IsNaN(again[5])) {
				t.Fatalf("repeat: the complete row was refilled or replaced")
			}
			again[5] = saved
			f.check("repeat", 3, again, shrunk)

			// A new generation re-admits samples: the lookup fills exactly
			// the entries the shrunk generation left out.
			f.rows.NewGeneration()
			row = f.row(0, 3, all)
			f.check("new generation", 3, row, all)
			if tc.cached {
				f.wantEvals("new generation", n-len(shrunk))
			} else {
				f.wantEvals("new generation", n)
			}

			// A pair of fresh rows is filled in one fused batch with the
			// same values and counts; a cached complete pair costs nothing.
			for round := 0; round < 2; round++ {
				rowU, rowL := f.rows.Pair(6, 9, f.x.RowView(6), f.x.RowView(9), f.ref.Norm(6), f.ref.Norm(9), shrunk)
				f.check("pair up", 6, rowU, shrunk)
				f.check("pair low", 9, rowL, shrunk)
				if round == 1 && tc.pairs {
					f.wantEvals("cached pair", 0)
				} else {
					f.wantEvals("pair", 2*len(shrunk))
				}
			}

			// Complete fills the targets a peeked row lacks.
			if peeked, ok := f.rows.Peek(9); ok != tc.cached {
				t.Fatalf("Peek(9) = %v, want %v", ok, tc.cached)
			} else if ok {
				f.rows.Complete(peeked, f.x.RowView(9), f.ref.Norm(9), all)
				f.check("complete", 9, peeked, all)
				f.wantEvals("complete", n-len(shrunk))
			}
		})
	}
}

// TestRowsLastRowIntact: the row returned last stays intact through one
// more lookup, with no budget (the two sides' transient rows) and with a
// budget of one row (which gives the new key fresh storage).
func TestRowsLastRowIntact(t *testing.T) {
	const n = 10
	actives := []int{0, 1, 4, 6, 9}
	for _, tc := range []struct {
		name   string
		budget int64
	}{{"off", -1}, {"one row", 8 * n}} {
		t.Run(tc.name, func(t *testing.T) {
			f := newRowsFixture(t, n, tc.budget)
			rowA := f.row(0, 2, actives)
			kept := slices.Clone(rowA)
			rowB := f.row(1, 7, actives)
			f.check("second", 7, rowB, actives)
			for _, i := range actives {
				if math.Float64bits(rowA[i]) != math.Float64bits(kept[i]) {
					t.Fatalf("entry %d of the first row changed from %v to %v", i, kept[i], rowA[i])
				}
			}
			f.check("first", 2, rowA, actives)
		})
	}
}
