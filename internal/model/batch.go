package model

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/sparse"
)

// Batch prediction: the kernel-evaluation loop shared by every bulk scoring
// path in the repository — the inference server (internal/serve),
// svmpredict, and Platt calibration (internal/probability). Prediction cost
// is dominated by kernel evaluations against the support-vector set, so
// rows are fanned out across a bounded worker pool in contiguous chunks:
// each worker streams through the CSR payload of its chunk while dynamic
// chunk claiming keeps load balanced when row lengths vary.

// batchChunk is the number of rows a worker claims at a time. Small enough
// to balance skewed row lengths, large enough that the atomic claim is
// negligible next to NumSV kernel evaluations per row.
const batchChunk = 16

// DecisionValues computes the decision function for every row of x using at
// most workers goroutines. workers <= 0 selects GOMAXPROCS. The
// support-vector norm cache is warmed once before any worker starts, so the
// call is safe regardless of prior WarmNorms calls.
func (m *Model) DecisionValues(x *sparse.Matrix, workers int) []float64 {
	out := make([]float64, x.Rows())
	m.decisionValuesInto(x, workers, out)
	return out
}

// PredictBatch classifies every row of x (+1/-1) using at most workers
// goroutines; it shares the kernel-evaluation loop with DecisionValues.
func (m *Model) PredictBatch(x *sparse.Matrix, workers int) []float64 {
	out := m.DecisionValues(x, workers)
	for i, v := range out {
		if v >= 0 {
			out[i] = 1
		} else {
			out[i] = -1
		}
	}
	return out
}

// DecisionValuesRows computes the decision function for each row using at
// most workers goroutines, without requiring the rows to share a matrix.
// The request-coalescing path (internal/serve/batcher) scores a window of
// independently submitted rows through this: same numbers as
// DecisionValues row for row, no intermediate CSR copy.
func (m *Model) DecisionValuesRows(rows []sparse.Row, workers int) []float64 {
	n := len(rows)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if max := (n + batchChunk - 1) / batchChunk; workers > max {
		workers = max
	}
	if m.IsLinear() {
		fanRows(n, workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = sparse.DotDense(rows[i], m.W) - m.Beta
			}
		})
		return out
	}
	if m.NumSV() == 0 {
		for i := range out {
			out[i] = -m.Beta
		}
		return out
	}
	m.WarmNorms()
	if workers <= 1 {
		st := m.acquirePredict()
		for i, r := range rows {
			out[i] = m.decisionWith(st, r)
		}
		m.predictPool.Put(st)
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := m.acquirePredict()
			defer m.predictPool.Put(st)
			for {
				lo := int(next.Add(batchChunk)) - batchChunk
				if lo >= n {
					return
				}
				hi := lo + batchChunk
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					out[i] = m.decisionWith(st, rows[i])
				}
			}
		}()
	}
	wg.Wait()
	return out
}

func (m *Model) decisionValuesInto(x *sparse.Matrix, workers int, out []float64) {
	n := x.Rows()
	if n == 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if max := (n + batchChunk - 1) / batchChunk; workers > max {
		workers = max
	}
	if m.IsLinear() {
		// Dense-hyperplane fast path: one sparse-dense dot per row, no
		// evaluator, no per-worker scratch — workers just split the rows.
		fanRows(n, workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = sparse.DotDense(x.RowView(i), m.W) - m.Beta
			}
		})
		return
	}
	m.WarmNorms()
	if workers <= 1 {
		st := m.acquirePredict()
		m.decisionRange(st, x, 0, n, out)
		m.predictPool.Put(st)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := m.acquirePredict()
			defer m.predictPool.Put(st)
			for {
				lo := int(next.Add(batchChunk)) - batchChunk
				if lo >= n {
					return
				}
				hi := lo + batchChunk
				if hi > n {
					hi = n
				}
				m.decisionRange(st, x, lo, hi, out)
			}
		}()
	}
	wg.Wait()
}

// fanRows splits [0, n) into batchChunk-sized chunks dynamically claimed by
// workers goroutines; run must be safe for concurrent calls on disjoint
// ranges.
func fanRows(n, workers int, run func(lo, hi int)) {
	if workers <= 1 {
		run(0, n)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(batchChunk)) - batchChunk
				if lo >= n {
					return
				}
				hi := lo + batchChunk
				if hi > n {
					hi = n
				}
				run(lo, hi)
			}
		}()
	}
	wg.Wait()
}

// decisionRange scores rows [lo, hi) of x into out — the single hot loop
// every batch path funnels through, one batched kernel row per sample.
// Requires warmed norms when called from multiple goroutines (WarmNorms
// ran above, so worker states never race on lazy initialization).
func (m *Model) decisionRange(st *predictState, x *sparse.Matrix, lo, hi int, out []float64) {
	if m.NumSV() == 0 {
		for i := lo; i < hi; i++ {
			out[i] = -m.Beta
		}
		return
	}
	for i := lo; i < hi; i++ {
		out[i] = m.decisionWith(st, x.RowView(i))
	}
}
