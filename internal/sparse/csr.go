// Package sparse provides a compressed sparse row (CSR) matrix tailored to
// the needs of the SVM solvers in this repository.
//
// The paper stores the training set X in basic CSR format because most of
// the evaluated datasets are sparse (several below 20% density) and because
// avoiding a dense representation is what makes the no-kernel-cache design
// viable on memory-restricted nodes. Rows are samples; columns are features.
// Feature indices are 0-based internally; the libsvm text format (1-based)
// is converted on read/write.
package sparse

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is an immutable CSR matrix. RowPtr has len(Rows)+1 entries;
// row i occupies ColIdx[RowPtr[i]:RowPtr[i+1]] and Val[RowPtr[i]:RowPtr[i+1]].
// Column indices within a row are strictly increasing.
type Matrix struct {
	RowPtr []int64   // row start offsets into ColIdx/Val, len = rows+1
	ColIdx []int32   // 0-based column index per stored entry
	Val    []float64 // value per stored entry
	Cols   int       // number of columns (max column index + 1, or declared)
}

// Row is a lightweight view of one CSR row. The slices alias the parent
// matrix and must not be mutated.
type Row struct {
	Idx []int32
	Val []float64
}

// RowMatrix is the read-only row-access surface shared by the in-memory
// Matrix and the out-of-core OOCMatrix. Solvers whose data access is
// row-at-a-time (the linear fast path) accept this interface, so the same
// training code runs over fully-resident CSR and over spilled row blocks.
type RowMatrix interface {
	// Rows returns the number of rows (samples).
	Rows() int
	// Dim returns the number of columns (features).
	Dim() int
	// RowView returns a view of row i. The slices must be treated as
	// immutable; they may alias internal storage that outlives the call.
	RowView(i int) Row
}

// Rows returns the number of rows (samples).
func (m *Matrix) Rows() int { return len(m.RowPtr) - 1 }

// Dim returns the number of columns; it is Cols as a method so *Matrix
// satisfies RowMatrix.
func (m *Matrix) Dim() int { return m.Cols }

// NNZ returns the number of stored entries.
func (m *Matrix) NNZ() int { return len(m.Val) }

// Density returns NNZ / (rows*cols), or 0 for an empty matrix.
func (m *Matrix) Density() float64 {
	r := m.Rows()
	if r == 0 || m.Cols == 0 {
		return 0
	}
	return float64(m.NNZ()) / (float64(r) * float64(m.Cols))
}

// RowView returns a view of row i without copying.
func (m *Matrix) RowView(i int) Row {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return Row{Idx: m.ColIdx[lo:hi], Val: m.Val[lo:hi]}
}

// Key returns a binary content key for the row: two rows have equal keys
// exactly when their stored (index, value) sequences are bit-identical.
// Callers use it to match rows across matrices (e.g. a model's support
// vectors back to the training set) without positional information.
func (r Row) Key() string {
	b := make([]byte, 0, 12*len(r.Idx))
	for k, idx := range r.Idx {
		b = append(b,
			byte(idx), byte(idx>>8), byte(idx>>16), byte(idx>>24))
		v := math.Float64bits(r.Val[k])
		b = append(b,
			byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	}
	return string(b)
}

// AvgRowNNZ returns the mean number of stored entries per row
// (the paper's symbol m, "average sample length").
func (m *Matrix) AvgRowNNZ() float64 {
	if m.Rows() == 0 {
		return 0
	}
	return float64(m.NNZ()) / float64(m.Rows())
}

// DotRows returns the inner product of two sparse rows using a two-pointer
// merge over the sorted index lists.
func DotRows(a, b Row) float64 {
	var s float64
	i, j := 0, 0
	for i < len(a.Idx) && j < len(b.Idx) {
		ai, bj := a.Idx[i], b.Idx[j]
		switch {
		case ai == bj:
			s += a.Val[i] * b.Val[j]
			i++
			j++
		case ai < bj:
			i++
		default:
			j++
		}
	}
	return s
}

// DotDense returns the inner product of a sparse row with a dense vector.
// Indices at or beyond len(dense) contribute nothing, so a row from a
// matrix with more columns than the vector is handled gracefully.
func DotDense(r Row, dense []float64) float64 {
	var s float64
	for k, c := range r.Idx {
		if int(c) < len(dense) {
			s += r.Val[k] * dense[c]
		}
	}
	return s
}

// GatherDense is DotDense with the per-entry bounds branch hoisted out:
// column indices within a row are strictly increasing, so one comparison
// against the row's last (largest) index decides whether the whole gather
// is in range. The kernel row engine sizes its dense scratch to cover the
// pivot row, which makes the fast path the common case; rows reaching past
// the scratch fall back to the per-entry check (their out-of-range entries
// pair with implicit zeros of the pivot, so the result matches DotRows).
func GatherDense(r Row, dense []float64) float64 {
	n := len(r.Idx)
	if n == 0 {
		return 0
	}
	if int(r.Idx[n-1]) >= len(dense) {
		return DotDense(r, dense)
	}
	var s float64
	for k, c := range r.Idx {
		s += r.Val[k] * dense[c]
	}
	return s
}

// GatherDense2 accumulates one CSR row against two dense vectors in a single
// traversal, so the row's indices and values are read once instead of twice.
// Both vectors must have the same length; the same hoisted bounds check as
// GatherDense applies.
func GatherDense2(r Row, a, b []float64) (sa, sb float64) {
	n := len(r.Idx)
	if n == 0 {
		return 0, 0
	}
	if int(r.Idx[n-1]) >= len(a) || len(b) < len(a) {
		return DotDense(r, a), DotDense(r, b)
	}
	for k, c := range r.Idx {
		v := r.Val[k]
		sa += v * a[c]
		sb += v * b[c]
	}
	return sa, sb
}

// AddScaledTo accumulates scale * r into the dense vector. Centroid
// updates in k-means clustering are the primary user: the running mean of
// a cluster's sparse rows lives in a dense accumulator.
func AddScaledTo(r Row, dense []float64, scale float64) {
	for k, c := range r.Idx {
		if int(c) < len(dense) {
			dense[c] += scale * r.Val[k]
		}
	}
}

// SquaredNorm returns the squared Euclidean norm of row i.
func (m *Matrix) SquaredNorm(i int) float64 {
	r := m.RowView(i)
	var s float64
	for _, v := range r.Val {
		s += v * v
	}
	return s
}

// SquaredNorms returns the squared norms of all rows. The SVM solvers
// precompute these once so each Gaussian-kernel evaluation costs a single
// sparse dot product: ||x-y||^2 = ||x||^2 + ||y||^2 - 2<x,y>.
func (m *Matrix) SquaredNorms() []float64 {
	out := make([]float64, m.Rows())
	for i := range out {
		out[i] = m.SquaredNorm(i)
	}
	return out
}

// SquaredNormsOf is SquaredNorms over any RowMatrix: one sequential pass,
// so an out-of-core matrix streams each block exactly once. On a *Matrix it
// produces bit-identical values to SquaredNorms.
func SquaredNormsOf(m RowMatrix) []float64 {
	out := make([]float64, m.Rows())
	for i := range out {
		var s float64
		r := m.RowView(i)
		for _, v := range r.Val {
			s += v * v
		}
		out[i] = s
	}
	return out
}

// SquaredDistance returns ||row a - row b||^2 computed directly
// (used in tests to cross-check the norm/dot decomposition).
func (m *Matrix) SquaredDistance(a, b int) float64 {
	ra, rb := m.RowView(a), m.RowView(b)
	var s float64
	i, j := 0, 0
	for i < len(ra.Idx) || j < len(rb.Idx) {
		switch {
		case j >= len(rb.Idx) || (i < len(ra.Idx) && ra.Idx[i] < rb.Idx[j]):
			s += ra.Val[i] * ra.Val[i]
			i++
		case i >= len(ra.Idx) || rb.Idx[j] < ra.Idx[i]:
			s += rb.Val[j] * rb.Val[j]
			j++
		default:
			d := ra.Val[i] - rb.Val[j]
			s += d * d
			i++
			j++
		}
	}
	return s
}

// SubMatrix returns a new matrix holding rows [lo, hi) of m. The returned
// matrix shares no storage with m and can be sent to another rank.
func (m *Matrix) SubMatrix(lo, hi int) (*Matrix, error) {
	if lo < 0 || hi < lo || hi > m.Rows() {
		return nil, fmt.Errorf("sparse: SubMatrix bounds [%d,%d) out of range for %d rows", lo, hi, m.Rows())
	}
	start, end := m.RowPtr[lo], m.RowPtr[hi]
	sub := &Matrix{
		RowPtr: make([]int64, hi-lo+1),
		ColIdx: make([]int32, end-start),
		Val:    make([]float64, end-start),
		Cols:   m.Cols,
	}
	for i := lo; i <= hi; i++ {
		sub.RowPtr[i-lo] = m.RowPtr[i] - start
	}
	copy(sub.ColIdx, m.ColIdx[start:end])
	copy(sub.Val, m.Val[start:end])
	return sub, nil
}

// RowRangeView returns a zero-copy view of rows [lo, hi) of m. The view
// shares storage with m: RowView works because row offsets stay absolute,
// but the view's RowPtr does not start at zero, so NNZ/Density/ByteSize
// report the parent's totals and Validate rejects it. It exists so batch
// prediction can run over a sub-range of samples without copying CSR
// payloads (serving hot path, per-rank evaluation blocks).
func (m *Matrix) RowRangeView(lo, hi int) (*Matrix, error) {
	if lo < 0 || hi < lo || hi > m.Rows() {
		return nil, fmt.Errorf("sparse: RowRangeView bounds [%d,%d) out of range for %d rows", lo, hi, m.Rows())
	}
	return &Matrix{RowPtr: m.RowPtr[lo : hi+1], ColIdx: m.ColIdx, Val: m.Val, Cols: m.Cols}, nil
}

// SelectRows returns a new matrix holding the given rows of m, in order.
// Used to extract support vectors when building the final model.
func (m *Matrix) SelectRows(rows []int) (*Matrix, error) {
	nnz := 0
	for _, r := range rows {
		if r < 0 || r >= m.Rows() {
			return nil, fmt.Errorf("sparse: SelectRows index %d out of range for %d rows", r, m.Rows())
		}
		nnz += int(m.RowPtr[r+1] - m.RowPtr[r])
	}
	out := &Matrix{RowPtr: make([]int64, 1, len(rows)+1), ColIdx: make([]int32, 0, nnz), Val: make([]float64, 0, nnz), Cols: m.Cols}
	for _, r := range rows {
		rv := m.RowView(r)
		out.ColIdx = append(out.ColIdx, rv.Idx...)
		out.Val = append(out.Val, rv.Val...)
		out.RowPtr = append(out.RowPtr, int64(len(out.Val)))
	}
	return out, nil
}

// Append returns a new matrix with the rows of b appended after the rows of
// a. Both inputs must have compatible column counts; the result's Cols is
// the max of the two.
func Append(a, b *Matrix) *Matrix {
	out := &Matrix{
		RowPtr: make([]int64, 0, a.Rows()+b.Rows()+1),
		ColIdx: make([]int32, 0, a.NNZ()+b.NNZ()),
		Val:    make([]float64, 0, a.NNZ()+b.NNZ()),
		Cols:   max(a.Cols, b.Cols),
	}
	out.RowPtr = append(out.RowPtr, a.RowPtr...)
	out.ColIdx = append(out.ColIdx, a.ColIdx...)
	out.Val = append(out.Val, a.Val...)
	base := int64(len(a.Val))
	for i := 1; i <= b.Rows(); i++ {
		out.RowPtr = append(out.RowPtr, base+b.RowPtr[i])
	}
	out.ColIdx = append(out.ColIdx, b.ColIdx...)
	out.Val = append(out.Val, b.Val...)
	return out
}

// Validate checks the structural invariants of the CSR representation:
// monotone row pointers, sorted strictly-increasing column indices within
// each row, indices within [0, Cols), and finite values.
func (m *Matrix) Validate() error {
	if len(m.RowPtr) == 0 {
		return errors.New("sparse: empty RowPtr; want at least one entry")
	}
	if m.RowPtr[0] != 0 {
		return fmt.Errorf("sparse: RowPtr[0] = %d, want 0", m.RowPtr[0])
	}
	if m.RowPtr[len(m.RowPtr)-1] != int64(len(m.Val)) {
		return fmt.Errorf("sparse: RowPtr[last] = %d, want %d", m.RowPtr[len(m.RowPtr)-1], len(m.Val))
	}
	if len(m.ColIdx) != len(m.Val) {
		return fmt.Errorf("sparse: len(ColIdx)=%d != len(Val)=%d", len(m.ColIdx), len(m.Val))
	}
	for i := 0; i < m.Rows(); i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		if lo > hi {
			return fmt.Errorf("sparse: row %d has negative extent [%d,%d)", i, lo, hi)
		}
		prev := int32(-1)
		for k := lo; k < hi; k++ {
			c := m.ColIdx[k]
			if c <= prev {
				return fmt.Errorf("sparse: row %d column indices not strictly increasing at entry %d (%d after %d)", i, k, c, prev)
			}
			if int(c) >= m.Cols || c < 0 {
				return fmt.Errorf("sparse: row %d column index %d out of range [0,%d)", i, c, m.Cols)
			}
			if math.IsNaN(m.Val[k]) || math.IsInf(m.Val[k], 0) {
				return fmt.Errorf("sparse: row %d entry %d is not finite: %v", i, k, m.Val[k])
			}
			prev = c
		}
	}
	return nil
}

// ByteSize reports the approximate in-memory payload size of the matrix.
// It implements the mpi.Sized interface so ring transfers of CSR blocks
// are charged realistically by the communication time model.
func (m *Matrix) ByteSize() int {
	return 8*len(m.RowPtr) + 4*len(m.ColIdx) + 8*len(m.Val)
}
