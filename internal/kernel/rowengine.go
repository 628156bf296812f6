// Batched kernel-row evaluation — the dense-scratch hot path shared by
// every solver, the oracle, and batch prediction.
//
// The pairwise At/Cross path re-merges the pivot row's index list against
// every target row (a two-pointer walk per evaluation). The row engine
// instead scatters the pivot once into a dense scratch vector sized to the
// matrix's column count — O(nnz(pivot)) — after which each K(pivot, x_i)
// is an indexed gather over x_i's CSR payload (sparse.GatherDense, with the
// bounds branch hoisted to one max-index comparison per row). For the SMO
// pair update, PairRowsInto scatters both the up and low pivots and fuses
// the two gathers into one traversal of each target row, so CSR indices
// and values are read once instead of twice.
//
// The arithmetic is order-identical to the pairwise path: shared indices
// contribute in the same sequence and non-shared indices gather exact
// zeros, so RowInto reproduces Eval bit for bit (the property tests pin
// this down to 1 ULP-scale tolerance).
package kernel

import (
	"fmt"
	"sync"

	"repro/internal/sparse"
)

// Scratch is the per-worker dense state of the row engine: two column-count
// sized vectors the pivot rows are scattered into. The zero value is ready
// to use; vectors grow on demand and are kept all-zero between calls (each
// batch clears exactly the entries it scattered). A Scratch must not be
// shared between goroutines — give each worker its own, next to its
// SubEvaluator.
type Scratch struct {
	a, b []float64
}

// ensure grows the scratch vectors to at least dim entries, preserving the
// all-zero invariant. pair selects whether the second vector is needed.
func (s *Scratch) ensure(dim int, pair bool) {
	if len(s.a) < dim {
		s.a = append(s.a, make([]float64, dim-len(s.a))...)
	}
	if pair && len(s.b) < dim {
		s.b = append(s.b, make([]float64, dim-len(s.b))...)
	}
}

// scratchDim returns the dense dimension a batch needs: the matrix's
// declared column count, extended to cover an external pivot whose max
// index reaches past it. Target indices beyond the returned dimension pair
// with implicit zeros of the pivot, so GatherDense's fallback keeps them
// exact.
func (e *Evaluator) scratchDim(pivot sparse.Row) int {
	dim := e.X.Cols
	if n := len(pivot.Idx); n > 0 {
		if m := int(pivot.Idx[n-1]) + 1; m > dim {
			dim = m
		}
	}
	return dim
}

// normOf returns the precomputed squared norm of bound row i (0 when the
// kernel does not use norms).
func (e *Evaluator) normOf(i int) float64 {
	if e.norms == nil {
		return 0
	}
	return e.norms[i]
}

// RowInto computes dst[k] = Phi(pivot, x_targets[k]) for every target row
// of the bound matrix, using the dense-scratch gather path. normPivot is
// the pivot's squared norm (pass 0 for non-Gaussian kernels). dst must
// hold at least len(targets) entries. The evaluation counter advances by
// len(targets), exactly as the equivalent Cross loop would.
func (e *Evaluator) RowInto(s *Scratch, pivot sparse.Row, normPivot float64, targets []int, dst []float64) {
	if len(dst) < len(targets) {
		panic(fmt.Sprintf("kernel: RowInto dst holds %d entries for %d targets", len(dst), len(targets)))
	}
	s.ensure(e.scratchDim(pivot), false)
	a := s.a
	for k, c := range pivot.Idx {
		a[c] = pivot.Val[k]
	}
	for t, i := range targets {
		dot := sparse.GatherDense(e.X.RowView(i), a)
		dst[t] = e.Params.finishDot(dot, e.normOf(i), normPivot)
	}
	for _, c := range pivot.Idx {
		a[c] = 0
	}
	e.evals += uint64(len(targets))
}

// RowRangeInto is RowInto for the contiguous target rows [lo, hi) of the
// bound matrix: dst[i-lo] = Phi(pivot, x_i). The contiguous form streams
// the CSR payload in storage order — the layout batch prediction and the
// oracle's gradient recomputation want.
func (e *Evaluator) RowRangeInto(s *Scratch, pivot sparse.Row, normPivot float64, lo, hi int, dst []float64) {
	if hi < lo {
		panic(fmt.Sprintf("kernel: RowRangeInto range [%d,%d)", lo, hi))
	}
	if len(dst) < hi-lo {
		panic(fmt.Sprintf("kernel: RowRangeInto dst holds %d entries for %d rows", len(dst), hi-lo))
	}
	s.ensure(e.scratchDim(pivot), false)
	a := s.a
	for k, c := range pivot.Idx {
		a[c] = pivot.Val[k]
	}
	for i := lo; i < hi; i++ {
		dot := sparse.GatherDense(e.X.RowView(i), a)
		dst[i-lo] = e.Params.finishDot(dot, e.normOf(i), normPivot)
	}
	for _, c := range pivot.Idx {
		a[c] = 0
	}
	e.evals += uint64(hi - lo)
}

// PairRowsInto computes both pivot rows against the same targets in one
// fused pass: dstUp[k] = Phi(up, x_targets[k]) and dstLow[k] =
// Phi(low, x_targets[k]). Each target row's CSR payload is traversed once,
// gathering against both scratch vectors — the up/low pair of every SMO
// iteration is the dominant caller. Counts 2*len(targets) evaluations.
func (e *Evaluator) PairRowsInto(s *Scratch, up, low sparse.Row, normUp, normLow float64, targets []int, dstUp, dstLow []float64) {
	if len(dstUp) < len(targets) || len(dstLow) < len(targets) {
		panic(fmt.Sprintf("kernel: PairRowsInto dst holds %d/%d entries for %d targets", len(dstUp), len(dstLow), len(targets)))
	}
	dim := e.scratchDim(up)
	if d := e.scratchDim(low); d > dim {
		dim = d
	}
	s.ensure(dim, true)
	a, b := s.a, s.b
	for k, c := range up.Idx {
		a[c] = up.Val[k]
	}
	for k, c := range low.Idx {
		b[c] = low.Val[k]
	}
	for t, i := range targets {
		ni := e.normOf(i)
		da, db := sparse.GatherDense2(e.X.RowView(i), a[:dim], b[:dim])
		dstUp[t] = e.Params.finishDot(da, ni, normUp)
		dstLow[t] = e.Params.finishDot(db, ni, normLow)
	}
	for _, c := range up.Idx {
		a[c] = 0
	}
	for _, c := range low.Idx {
		b[c] = 0
	}
	e.evals += 2 * uint64(len(targets))
}

// DiagInto fills dst[i] = Phi(x_i, x_i) for every bound row. The diagonal
// needs no dot product at all: <x_i, x_i> is the squared norm, so each
// entry costs O(nnz(row)) at most (and O(1) for Gaussian, where the
// diagonal is identically 1). Replaces the At(i, i) startup loops of the
// second-order solvers; counts one evaluation per row like they did.
func (e *Evaluator) DiagInto(dst []float64) {
	n := e.X.Rows()
	if len(dst) < n {
		panic(fmt.Sprintf("kernel: DiagInto dst holds %d entries for %d rows", len(dst), n))
	}
	for i := 0; i < n; i++ {
		sn := e.normOf(i)
		if e.norms == nil {
			sn = e.X.SquaredNorm(i)
		}
		dst[i] = e.Params.finishDot(sn, sn, sn)
	}
	e.evals += uint64(n)
}

// RowPool fans row batches across a bounded worker pool: worker w owns a
// SubEvaluator (independent eval counter over the shared read-only matrix
// and norms) and a Scratch, so concurrent chunk fills never share mutable
// state. A RowPool serves one batch at a time — its methods must not be
// called concurrently with each other, but each call is internally
// parallel. Callers with their own fan-out (chunked gradient loops) borrow
// per-worker state via Worker instead.
type RowPool struct {
	evs []*Evaluator
	scr []*Scratch
}

// minParallelTargets is the batch size below which RowPool stays on one
// goroutine: a kernel row over fewer targets than this finishes faster
// than the handoff costs. BenchmarkRowPoolFanOut times both sides of it.
const minParallelTargets = 256

// NewRowPool builds a pool of workers over e's matrix. workers < 1 is
// clamped to 1.
func NewRowPool(e *Evaluator, workers int) *RowPool {
	if workers < 1 {
		workers = 1
	}
	p := &RowPool{evs: make([]*Evaluator, workers), scr: make([]*Scratch, workers)}
	for w := range p.evs {
		p.evs[w] = e.SubEvaluator()
		p.scr[w] = &Scratch{}
	}
	return p
}

// Workers returns the pool size.
func (p *RowPool) Workers() int { return len(p.evs) }

// Worker returns worker w's evaluator and scratch for caller-managed
// chunking. The pair must only be used by one goroutine at a time.
func (p *RowPool) Worker(w int) (*Evaluator, *Scratch) { return p.evs[w], p.scr[w] }

// Evals sums the workers' evaluation counters.
func (p *RowPool) Evals() uint64 {
	var total uint64
	for _, ev := range p.evs {
		total += ev.Evals()
	}
	return total
}

// ResetEvals zeroes every worker's counter.
func (p *RowPool) ResetEvals() {
	for _, ev := range p.evs {
		ev.ResetEvals()
	}
}

// RowInto is Evaluator.RowInto with the targets chunked across the pool.
func (p *RowPool) RowInto(pivot sparse.Row, normPivot float64, targets []int, dst []float64) {
	p.rowInto(pivot, normPivot, targets, dst, minParallelTargets)
}

// rowInto is RowInto with the fan-out threshold as a parameter, so a
// benchmark can time both sides of it at one batch size.
func (p *RowPool) rowInto(pivot sparse.Row, normPivot float64, targets []int, dst []float64, minParallel int) {
	if len(dst) < len(targets) {
		panic(fmt.Sprintf("kernel: RowInto dst holds %d entries for %d targets", len(dst), len(targets)))
	}
	n := len(targets)
	w := len(p.evs)
	if n < minParallel || w == 1 {
		p.evs[0].RowInto(p.scr[0], pivot, normPivot, targets, dst)
		return
	}
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		lo, hi := k*n/w, (k+1)*n/w
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(k, lo, hi int) {
			defer wg.Done()
			p.evs[k].RowInto(p.scr[k], pivot, normPivot, targets[lo:hi], dst[lo:hi])
		}(k, lo, hi)
	}
	wg.Wait()
}

// PairRowsInto is Evaluator.PairRowsInto with the targets chunked across
// the pool.
func (p *RowPool) PairRowsInto(up, low sparse.Row, normUp, normLow float64, targets []int, dstUp, dstLow []float64) {
	p.pairRowsInto(up, low, normUp, normLow, targets, dstUp, dstLow, minParallelTargets)
}

// pairRowsInto is PairRowsInto with the fan-out threshold as a parameter.
func (p *RowPool) pairRowsInto(up, low sparse.Row, normUp, normLow float64, targets []int, dstUp, dstLow []float64, minParallel int) {
	if len(dstUp) < len(targets) || len(dstLow) < len(targets) {
		panic(fmt.Sprintf("kernel: PairRowsInto dst holds %d/%d entries for %d targets", len(dstUp), len(dstLow), len(targets)))
	}
	n := len(targets)
	w := len(p.evs)
	if n < minParallel || w == 1 {
		p.evs[0].PairRowsInto(p.scr[0], up, low, normUp, normLow, targets, dstUp, dstLow)
		return
	}
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		lo, hi := k*n/w, (k+1)*n/w
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(k, lo, hi int) {
			defer wg.Done()
			p.evs[k].PairRowsInto(p.scr[k], up, low, normUp, normLow, targets[lo:hi], dstUp[lo:hi], dstLow[lo:hi])
		}(k, lo, hi)
	}
	wg.Wait()
}
