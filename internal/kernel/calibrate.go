package kernel

import (
	"time"
)

// LambdaBatched estimates the average wall-clock cost of one kernel
// evaluation on the bound dataset (the paper's symbol lambda in Table I)
// through the batched dense-scratch row path — the path every solver hot
// loop actually executes — so perfmodel projections track the real
// per-evaluation cost. Pivot rows are strided
// deterministically (sampling short and long rows alike) and each is
// evaluated against a contiguous block of rows, amortizing the scatter the
// way a gradient pass does. minDuration bounds calibration time; pass 0
// for the default of 20ms.
func (e *Evaluator) LambdaBatched(minDuration time.Duration) float64 {
	if minDuration <= 0 {
		minDuration = 20 * time.Millisecond
	}
	n := e.X.Rows()
	if n == 0 {
		return 0
	}
	block := n
	if block > 1024 {
		block = 1024
	}
	var scr Scratch
	dst := make([]float64, block)
	var evals uint64
	k := 0
	start := time.Now()
	for time.Since(start) < minDuration {
		i := (k * 2654435761) % n
		lo := (k*40503 + 12345) % (n - block + 1)
		e.RowRangeInto(&scr, e.X.RowView(i), e.normOf(i), lo, lo+block, dst)
		evals += uint64(block)
		k++
	}
	elapsed := time.Since(start).Seconds()
	if evals == 0 {
		return 0
	}
	return elapsed / float64(evals)
}
