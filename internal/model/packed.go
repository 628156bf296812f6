package model

import (
	"repro/internal/kernel"
	"repro/internal/sparse"
)

// Predict-time dense support-vector layout. The pooled row engine gathers
// each support vector's CSR payload against a dense scratch of the query
// row — per kernel value that is an index load, a value load, and a
// dependent scratch load. PackedSVs transposes the support-vector matrix
// once at load time into a feature-major dense block, so a query's sparse
// entries each stream one contiguous column of the block with unit stride:
// the same scatter-once/gather-many win training got from the row engine,
// applied to serving. The block costs rows*cols*8 bytes, so packing is
// gated on a size budget; models over budget keep the pooled CSR path.

// DefaultPackBudget is the dense-block size cap used when callers pass a
// non-positive budget to Pack: 64 MiB, enough for ~10k support vectors at
// 784 features while keeping a multi-model registry resident.
const DefaultPackBudget int64 = 64 << 20

// PackedSVs is an immutable feature-major copy of a model's support
// vectors, in two aligned forms: a dense block (block[c*rows+i] = SV[i][c])
// whose columns stream with unit stride, and the block's column-compressed
// skeleton (colPtr/rowIdx/colVal) that visits only the nonzero rows of a
// column. Dense models stream the block; sparse models walk the skeleton,
// which skips the zero products the row engine's gather must still touch.
// Built once (Pack) before a model starts serving; safe for concurrent use
// afterwards.
type PackedSVs struct {
	rows, cols int
	block      []float64
	colPtr     []int32
	rowIdx     []int32
	colVal     []float64
	scatter    bool      // walk the CSC skeleton instead of streaming columns
	norms      []float64 // shared with the model's warmed norm cache
	kp         kernel.Params
}

// Rows returns the number of packed support vectors.
func (p *PackedSVs) Rows() int { return p.rows }

// Bytes returns the packed layout's size in bytes (dense block plus the
// column-compressed skeleton).
func (p *PackedSVs) Bytes() int64 {
	return int64(len(p.block))*8 + int64(len(p.rowIdx))*4 + int64(len(p.colVal))*8 + int64(len(p.colPtr))*4
}

// Pack builds the dense predict-time layout when the model carries a
// support-vector set whose dense block fits budget bytes (<= 0 selects
// DefaultPackBudget). It reports whether the model is packed afterwards.
// Linear fast-path models (explicit W) never pack: their predict path is
// already one dense dot. Pack is a load-time operation: it must complete
// before the model serves concurrent predictions.
func (m *Model) Pack(budget int64) bool {
	if m.packed != nil {
		return true
	}
	if m.IsLinear() || m.SV == nil || m.SV.Rows() == 0 || m.SV.Cols <= 0 {
		return false
	}
	if budget <= 0 {
		budget = DefaultPackBudget
	}
	rows, cols := m.SV.Rows(), m.SV.Cols
	if int64(rows)*int64(cols)*8 > budget {
		return false
	}
	m.WarmNorms()
	block := make([]float64, rows*cols)
	counts := make([]int32, cols+1)
	var nnz int
	for i := 0; i < rows; i++ {
		r := m.SV.RowView(i)
		nnz += len(r.Idx)
		for k, c := range r.Idx {
			block[int(c)*rows+i] = r.Val[k]
			counts[c+1]++
		}
	}
	colPtr := counts
	for c := 0; c < cols; c++ {
		colPtr[c+1] += colPtr[c]
	}
	rowIdx := make([]int32, nnz)
	colVal := make([]float64, nnz)
	next := make([]int32, cols)
	copy(next, colPtr[:cols])
	for i := 0; i < rows; i++ {
		r := m.SV.RowView(i)
		for k, c := range r.Idx {
			at := next[c]
			next[c]++
			rowIdx[at] = int32(i)
			colVal[at] = r.Val[k]
		}
	}
	density := float64(nnz) / float64(rows*cols)
	m.packed = &PackedSVs{
		rows: rows, cols: cols, block: block,
		colPtr: colPtr, rowIdx: rowIdx, colVal: colVal,
		scatter: density < 0.5,
		norms:   m.svNormsCache, kp: m.Kernel,
	}
	return true
}

// PackedBytes returns the dense block's size in bytes (0 when unpacked).
func (m *Model) PackedBytes() int64 {
	if m.packed == nil {
		return 0
	}
	return m.packed.Bytes()
}

// DotsInto computes dot(x, sv_i) for every packed support vector into
// dst[:rows]. Query entries at columns past the packed width pair with
// implicit zeros of every support vector (matching the row engine's
// scratch semantics) and are skipped.
//
// The accumulation order per support vector is x's ascending column order;
// the row engine's gather runs in the support vector's ascending column
// order. The two orders interleave the same nonzero products identically
// (both ascend in column) and differ only in where exact-zero products
// fall — adding a ±0.0 product never changes a partial sum — so the dots,
// and therefore the kernel values, are bit-identical.
func (p *PackedSVs) DotsInto(x sparse.Row, dst []float64) {
	dst = dst[:p.rows]
	for i := range dst {
		dst[i] = 0
	}
	if p.scatter {
		p.dotsScatter(x, dst)
		return
	}
	p.dotsDense(x, dst)
}

// dotsScatter walks the column-compressed skeleton: only (query column,
// support vector) pairs where both sides are nonzero are touched, which on
// sparse data is a small fraction of the row engine's gather work.
func (p *PackedSVs) dotsScatter(x sparse.Row, dst []float64) {
	for k, c := range x.Idx {
		if int(c) >= p.cols {
			return // columns ascend within a row; the rest are out of range too
		}
		v := x.Val[k]
		lo, hi := p.colPtr[c], p.colPtr[c+1]
		ri := p.rowIdx[lo:hi]
		cv := p.colVal[lo:hi]
		for j, i := range ri {
			dst[i] += v * cv[j]
		}
	}
}

// dotsDense streams whole dense columns with unit stride, four query
// columns per pass to amortize the dst traffic; the per-element sum order
// (c0, c1, c2, c3 ascending) matches the one-column-at-a-time loop exactly.
func (p *PackedSVs) dotsDense(x sparse.Row, dst []float64) {
	nnz := len(x.Idx)
	k := 0
	for ; k+4 <= nnz && int(x.Idx[k+3]) < p.cols; k += 4 {
		c0, c1, c2, c3 := int(x.Idx[k]), int(x.Idx[k+1]), int(x.Idx[k+2]), int(x.Idx[k+3])
		v0, v1, v2, v3 := x.Val[k], x.Val[k+1], x.Val[k+2], x.Val[k+3]
		col0 := p.block[c0*p.rows : c0*p.rows+p.rows]
		col1 := p.block[c1*p.rows : c1*p.rows+p.rows]
		col2 := p.block[c2*p.rows : c2*p.rows+p.rows]
		col3 := p.block[c3*p.rows : c3*p.rows+p.rows]
		for i := range col0 {
			s := dst[i] + v0*col0[i]
			s += v1 * col1[i]
			s += v2 * col2[i]
			s += v3 * col3[i]
			dst[i] = s
		}
	}
	for ; k < nnz; k++ {
		c := int(x.Idx[k])
		if c >= p.cols {
			break
		}
		v := x.Val[k]
		col := p.block[c*p.rows : c*p.rows+p.rows]
		for i := range col {
			dst[i] += v * col[i]
		}
	}
}

// decision evaluates the packed decision function into the borrowed dots
// buffer: the same coef-weighted kernel sum as the row-engine path, with
// kernel.WeightedFinishDots mapping each dot to Phi exactly as the engine
// does.
func (p *PackedSVs) decision(x sparse.Row, coef []float64, beta float64, buf []float64) float64 {
	p.DotsInto(x, buf)
	nx := kernel.SquaredNormOf(x)
	return p.kp.WeightedFinishDots(coef, buf, p.norms, nx) - beta
}
