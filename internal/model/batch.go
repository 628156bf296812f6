package model

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/sparse"
)

// Batch prediction: one kernel-evaluation loop behind every bulk scoring
// path in the repository. DecisionValues scores the rows of a matrix
// (svmpredict, Platt calibration); DecisionValuesRows scores rows that
// share no matrix (the inference server's coalesced windows and
// client-assembled batches). Prediction cost is dominated by kernel
// evaluations against the support-vector set, so rows are fanned out
// across a bounded worker pool in contiguous chunks: each worker streams
// through its chunk while dynamic chunk claiming keeps load balanced when
// row lengths vary.

// batchChunk is the number of rows a worker claims at a time. Small enough
// to balance skewed row lengths, large enough that the atomic claim is
// negligible next to NumSV kernel evaluations per row.
const batchChunk = 16

// DecisionValues computes the decision function for every row of x using at
// most workers goroutines. workers <= 0 selects GOMAXPROCS. The
// support-vector norm cache is warmed once before any worker starts, so the
// call is safe regardless of prior WarmNorms calls.
func (m *Model) DecisionValues(x *sparse.Matrix, workers int) []float64 {
	return m.decisionValues(x.Rows(), x.RowView, workers)
}

// DecisionValuesRows is DecisionValues over rows that need not share a
// matrix: same numbers row for row, no intermediate CSR copy.
func (m *Model) DecisionValuesRows(rows []sparse.Row, workers int) []float64 {
	return m.decisionValues(len(rows), func(i int) sparse.Row { return rows[i] }, workers)
}

// decisionValues scores rows rowAt(0..n-1), each exactly as DecisionValue
// would: the dense hyperplane when the model has one, -Beta when it has no
// support vectors, else the kernel sum through a per-worker predictState.
// The calling goroutine is one of the workers.
func (m *Model) decisionValues(n int, rowAt func(int) sparse.Row, workers int) []float64 {
	out := make([]float64, n)
	kernelPath := !m.IsLinear() && m.NumSV() > 0
	if kernelPath {
		m.WarmNorms() // workers never race on lazy initialization
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, (n+batchChunk-1)/batchChunk)
	var next atomic.Int64
	work := func() {
		var st *predictState
		if kernelPath {
			st = m.acquirePredict()
			defer m.predictPool.Put(st)
		}
		for {
			lo := int(next.Add(batchChunk)) - batchChunk
			if lo >= n {
				return
			}
			for i := lo; i < min(lo+batchChunk, n); i++ {
				switch x := rowAt(i); {
				case m.IsLinear():
					out[i] = sparse.DotDense(x, m.W) - m.Beta
				case st == nil:
					out[i] = -m.Beta
				default:
					out[i] = m.decisionWith(st, x)
				}
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return out
}
