package sparse

import "sort"

// Builder incrementally assembles a CSR matrix one row at a time.
// Entries within a row may be added in any order; EndRow sorts them and
// coalesces duplicate column indices by summing.
type Builder struct {
	rowPtr []int64
	colIdx []int32
	val    []float64
	cols   int

	// pending entries for the current row
	curIdx []int32
	curVal []float64
}

// NewBuilder returns a Builder. cols may be 0, in which case the final
// column count is inferred from the maximum index seen.
func NewBuilder(cols int) *Builder {
	return &Builder{rowPtr: []int64{0}, cols: cols}
}

// Add records entry (col, v) in the current row.
func (b *Builder) Add(col int, v float64) {
	b.curIdx = append(b.curIdx, int32(col))
	b.curVal = append(b.curVal, v)
	if col+1 > b.cols {
		b.cols = col + 1
	}
}

// EndRow finishes the current row: entries are sorted by column and
// duplicates summed. Zero values are kept (libsvm files may contain
// explicit zeros and dropping them would change NNZ accounting).
func (b *Builder) EndRow() {
	if len(b.curIdx) > 0 {
		perm := make([]int, len(b.curIdx))
		for i := range perm {
			perm[i] = i
		}
		sort.Slice(perm, func(i, j int) bool { return b.curIdx[perm[i]] < b.curIdx[perm[j]] })
		var lastCol int32 = -1
		for _, pi := range perm {
			c, v := b.curIdx[pi], b.curVal[pi]
			if c == lastCol {
				b.val[len(b.val)-1] += v
				continue
			}
			b.colIdx = append(b.colIdx, c)
			b.val = append(b.val, v)
			lastCol = c
		}
		b.curIdx = b.curIdx[:0]
		b.curVal = b.curVal[:0]
	}
	b.rowPtr = append(b.rowPtr, int64(len(b.val)))
}

// AddRow appends a whole row given parallel index/value slices.
func (b *Builder) AddRow(idx []int32, val []float64) {
	for i := range idx {
		b.Add(int(idx[i]), val[i])
	}
	b.EndRow()
}

// Rows returns the number of completed rows so far.
func (b *Builder) Rows() int { return len(b.rowPtr) - 1 }

// Build finalizes the matrix. The builder must not be reused afterwards.
func (b *Builder) Build() *Matrix {
	return &Matrix{RowPtr: b.rowPtr, ColIdx: b.colIdx, Val: b.val, Cols: b.cols}
}

// FromDense converts a dense row-major matrix to CSR, dropping exact zeros.
func FromDense(rows [][]float64) *Matrix {
	cols := 0
	for _, r := range rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	b := NewBuilder(cols)
	for _, r := range rows {
		for j, v := range r {
			if v != 0 {
				b.Add(j, v)
			}
		}
		b.EndRow()
	}
	return b.Build()
}

// ToDense expands the matrix to a dense row-major representation.
// Intended for tests and small examples only.
func (m *Matrix) ToDense() [][]float64 {
	out := make([][]float64, m.Rows())
	for i := range out {
		out[i] = make([]float64, m.Cols)
		r := m.RowView(i)
		for k, c := range r.Idx {
			out[i][c] = r.Val[k]
		}
	}
	return out
}
