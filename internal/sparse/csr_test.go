package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func denseDot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// randomDense builds a random dense matrix with the given density.
func randomDense(rng *rand.Rand, rows, cols int, density float64) [][]float64 {
	m := make([][]float64, rows)
	for i := range m {
		m[i] = make([]float64, cols)
		for j := range m[i] {
			if rng.Float64() < density {
				m[i][j] = rng.NormFloat64()
			}
		}
	}
	return m
}

func TestFromDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := randomDense(rng, 17, 9, 0.3)
	m := FromDense(d)
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	back := m.ToDense()
	for i := range d {
		for j := range d[i] {
			if d[i][j] != back[i][j] {
				t.Fatalf("round trip mismatch at (%d,%d): %v vs %v", i, j, d[i][j], back[i][j])
			}
		}
	}
}

func TestDotMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := randomDense(rng, 20, 15, 0.4)
	m := FromDense(d)
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Rows(); j++ {
			got := DotRows(m.RowView(i), m.RowView(j))
			want := denseDot(d[i], d[j])
			if !almostEqual(got, want, 1e-12) {
				t.Fatalf("DotRows(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestSquaredNormAndDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := randomDense(rng, 12, 8, 0.5)
	m := FromDense(d)
	norms := m.SquaredNorms()
	for i := 0; i < m.Rows(); i++ {
		if !almostEqual(norms[i], denseDot(d[i], d[i]), 1e-12) {
			t.Fatalf("norm %d mismatch", i)
		}
		for j := 0; j < m.Rows(); j++ {
			// ||x-y||^2 == ||x||^2 + ||y||^2 - 2<x,y>
			direct := m.SquaredDistance(i, j)
			decomp := norms[i] + norms[j] - 2*DotRows(m.RowView(i), m.RowView(j))
			if !almostEqual(direct, decomp, 1e-10) {
				t.Fatalf("distance decomposition mismatch (%d,%d): %v vs %v", i, j, direct, decomp)
			}
		}
	}
}

func TestSquaredDistanceSelfIsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := FromDense(randomDense(rng, 10, 6, 0.5))
	for i := 0; i < m.Rows(); i++ {
		if d := m.SquaredDistance(i, i); d != 0 {
			t.Fatalf("SquaredDistance(%d,%d) = %v, want 0", i, i, d)
		}
	}
}

func TestSubMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := randomDense(rng, 25, 7, 0.3)
	m := FromDense(d)
	sub, err := m.SubMatrix(5, 15)
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Validate(); err != nil {
		t.Fatalf("sub Validate: %v", err)
	}
	if sub.Rows() != 10 {
		t.Fatalf("sub rows = %d, want 10", sub.Rows())
	}
	back := sub.ToDense()
	for i := 0; i < 10; i++ {
		for j := 0; j < 7; j++ {
			if back[i][j] != d[i+5][j] {
				t.Fatalf("sub mismatch at (%d,%d)", i, j)
			}
		}
	}
	if _, err := m.SubMatrix(-1, 3); err == nil {
		t.Fatal("want error for negative lo")
	}
	if _, err := m.SubMatrix(3, 26); err == nil {
		t.Fatal("want error for hi out of range")
	}
	if _, err := m.SubMatrix(5, 4); err == nil {
		t.Fatal("want error for hi < lo")
	}
}

func TestSubMatrixEmpty(t *testing.T) {
	m := FromDense([][]float64{{1, 0}, {0, 2}})
	sub, err := m.SubMatrix(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Rows() != 0 || sub.NNZ() != 0 {
		t.Fatalf("empty sub: rows=%d nnz=%d", sub.Rows(), sub.NNZ())
	}
	if err := sub.Validate(); err != nil {
		t.Fatalf("empty sub Validate: %v", err)
	}
}

func TestSelectRows(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := randomDense(rng, 20, 5, 0.5)
	m := FromDense(d)
	sel, err := m.SelectRows([]int{3, 17, 0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := sel.Validate(); err != nil {
		t.Fatal(err)
	}
	back := sel.ToDense()
	for k, r := range []int{3, 17, 0, 3} {
		for j := 0; j < 5; j++ {
			if back[k][j] != d[r][j] {
				t.Fatalf("SelectRows mismatch at selected %d col %d", k, j)
			}
		}
	}
	if _, err := m.SelectRows([]int{20}); err == nil {
		t.Fatal("want out-of-range error")
	}
}

func TestAppend(t *testing.T) {
	a := FromDense([][]float64{{1, 0, 2}, {0, 3, 0}})
	b := FromDense([][]float64{{0, 0, 4}})
	ab := Append(a, b)
	if err := ab.Validate(); err != nil {
		t.Fatal(err)
	}
	if ab.Rows() != 3 || ab.NNZ() != 4 {
		t.Fatalf("rows=%d nnz=%d", ab.Rows(), ab.NNZ())
	}
	d := ab.ToDense()
	if d[2][2] != 4 || d[0][0] != 1 || d[1][1] != 3 {
		t.Fatalf("Append content wrong: %v", d)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	good := FromDense([][]float64{{1, 2}, {3, 4}})
	cases := []struct {
		name   string
		mutate func(*Matrix)
	}{
		{"rowptr first", func(m *Matrix) { m.RowPtr[0] = 1 }},
		{"rowptr last", func(m *Matrix) { m.RowPtr[len(m.RowPtr)-1]++ }},
		{"unsorted cols", func(m *Matrix) { m.ColIdx[0], m.ColIdx[1] = m.ColIdx[1], m.ColIdx[0] }},
		{"col out of range", func(m *Matrix) { m.ColIdx[1] = 99 }},
		{"nan value", func(m *Matrix) { m.Val[0] = math.NaN() }},
		{"inf value", func(m *Matrix) { m.Val[2] = math.Inf(1) }},
	}
	for _, tc := range cases {
		m, err := good.SubMatrix(0, good.Rows()) // a deep copy
		if err != nil {
			t.Fatal(err)
		}
		tc.mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted corrupted matrix", tc.name)
		}
	}
}

func TestDensityAndAvgNNZ(t *testing.T) {
	m := FromDense([][]float64{{1, 0, 0, 0}, {1, 2, 0, 0}})
	if got := m.Density(); !almostEqual(got, 3.0/8.0, 1e-15) {
		t.Fatalf("Density = %v", got)
	}
	if got := m.AvgRowNNZ(); !almostEqual(got, 1.5, 1e-15) {
		t.Fatalf("AvgRowNNZ = %v", got)
	}
}

func TestByteSize(t *testing.T) {
	m := FromDense([][]float64{{1, 2}, {3, 0}})
	want := 8*3 + 4*3 + 8*3
	if got := m.ByteSize(); got != want {
		t.Fatalf("ByteSize = %d, want %d", got, want)
	}
}

func TestBuilderDuplicatesAndOrder(t *testing.T) {
	b := NewBuilder(0)
	b.Add(5, 1.0)
	b.Add(2, 2.0)
	b.Add(5, 3.0) // duplicate column: summed
	b.EndRow()
	b.EndRow() // empty row
	b.Add(0, -1)
	b.EndRow()
	m := b.Build()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 3 || m.Cols != 6 {
		t.Fatalf("rows=%d cols=%d", m.Rows(), m.Cols)
	}
	r0 := m.RowView(0)
	if len(r0.Idx) != 2 || r0.Idx[0] != 2 || r0.Idx[1] != 5 || r0.Val[1] != 4.0 {
		t.Fatalf("row0 = %+v", r0)
	}
	if r1 := m.RowView(1); len(r1.Idx) != 0 {
		t.Fatalf("row1 = %+v", r1)
	}
}

// Property: for random sparse matrices, DotRows is symmetric and the
// Cauchy-Schwarz inequality holds.
func TestDotPropertyQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 2 + rng.Intn(8)
		cols := 1 + rng.Intn(12)
		m := FromDense(randomDense(rng, rows, cols, 0.4))
		if err := m.Validate(); err != nil {
			return false
		}
		i, j := rng.Intn(rows), rng.Intn(rows)
		dij, dji := DotRows(m.RowView(i), m.RowView(j)), DotRows(m.RowView(j), m.RowView(i))
		if dij != dji {
			return false
		}
		// Cauchy-Schwarz with tolerance.
		lhs := dij * dij
		rhs := m.SquaredNorm(i) * m.SquaredNorm(j)
		return lhs <= rhs*(1+1e-9)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: SubMatrix + Append reconstructs the original matrix.
func TestSplitAppendRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 2 + rng.Intn(10)
		cols := 1 + rng.Intn(6)
		m := FromDense(randomDense(rng, rows, cols, 0.5))
		cut := rng.Intn(rows + 1)
		a, err1 := m.SubMatrix(0, cut)
		b, err2 := m.SubMatrix(cut, rows)
		if err1 != nil || err2 != nil {
			return false
		}
		re := Append(a, b)
		if re.Rows() != m.Rows() || re.NNZ() != m.NNZ() {
			return false
		}
		da, db := m.ToDense(), re.ToDense()
		for i := range da {
			for j := range da[i] {
				if da[i][j] != db[i][j] {
					return false
				}
			}
		}
		return re.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDotRows(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	m := FromDense(randomDense(rng, 2, 1000, 0.1))
	r0, r1 := m.RowView(0), m.RowView(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = DotRows(r0, r1)
	}
}

func TestRowRangeView(t *testing.T) {
	m := FromDense([][]float64{{1, 0, 2}, {0, 3, 0}, {4, 5, 6}, {0, 0, 7}})
	v, err := m.RowRangeView(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v.Rows() != 2 || v.Cols != m.Cols {
		t.Fatalf("view shape %dx%d", v.Rows(), v.Cols)
	}
	for k := 0; k < v.Rows(); k++ {
		got, want := v.RowView(k), m.RowView(1+k)
		if len(got.Idx) != len(want.Idx) {
			t.Fatalf("view row %d nnz %d != %d", k, len(got.Idx), len(want.Idx))
		}
		for j := range got.Idx {
			if got.Idx[j] != want.Idx[j] || got.Val[j] != want.Val[j] {
				t.Fatalf("view row %d entry %d differs", k, j)
			}
		}
		if v.SquaredNorm(k) != m.SquaredNorm(1+k) {
			t.Fatalf("view row %d norm differs", k)
		}
	}
	// Views share storage: no copying happened.
	if &v.Val[0] != &m.Val[0] {
		t.Fatal("view copied values")
	}
	// Empty and full ranges are fine; out-of-range is rejected.
	if full, err := m.RowRangeView(0, m.Rows()); err != nil || full.Rows() != m.Rows() {
		t.Fatalf("full view: %v", err)
	}
	if empty, err := m.RowRangeView(2, 2); err != nil || empty.Rows() != 0 {
		t.Fatalf("empty view: %v", err)
	}
	for _, bad := range [][2]int{{-1, 2}, {3, 2}, {0, 5}} {
		if _, err := m.RowRangeView(bad[0], bad[1]); err == nil {
			t.Fatalf("bounds %v accepted", bad)
		}
	}
}

func TestGatherDenseMatchesDotDense(t *testing.T) {
	rows := []Row{
		{},                                     // empty row
		{Idx: []int32{3}, Val: []float64{2.5}}, // single entry
		{Idx: []int32{0, 2, 4}, Val: []float64{1, -2, 0.5}},    // in range
		{Idx: []int32{1, 4, 9}, Val: []float64{3, 1.5, -0.25}}, // reaches past dense
	}
	dense := []float64{1, -1, 2, 0.5, -3}
	other := []float64{0.5, 2, -1, 4, 1}
	for i, r := range rows {
		want := DotDense(r, dense)
		if got := GatherDense(r, dense); got != want {
			t.Fatalf("row %d: GatherDense = %v, DotDense = %v", i, got, want)
		}
		wa, wb := DotDense(r, dense), DotDense(r, other)
		ga, gb := GatherDense2(r, dense, other)
		if ga != wa || gb != wb {
			t.Fatalf("row %d: GatherDense2 = (%v,%v), want (%v,%v)", i, ga, gb, wa, wb)
		}
	}
}

// The gather over a dense scatter of row b must reproduce the two-pointer
// merge bit for bit — the identity the kernel row engine's exactness rests
// on (non-shared indices contribute exact zeros).
func TestGatherDenseMatchesDotRows(t *testing.T) {
	a := Row{Idx: []int32{0, 3, 5, 8}, Val: []float64{0.1, -2.2, 3.3, 0.04}}
	b := Row{Idx: []int32{1, 3, 8, 9}, Val: []float64{5, 7, -0.5, 2}}
	dense := make([]float64, 10)
	for k, c := range b.Idx {
		dense[c] = b.Val[k]
	}
	if got, want := GatherDense(a, dense), DotRows(a, b); got != want {
		t.Fatalf("GatherDense = %v, DotRows = %v", got, want)
	}
}
