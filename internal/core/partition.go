package core

import (
	"fmt"

	"repro/internal/sparse"
)

// Partition is one rank's block of the training set: global rows
// [Lo, Hi). The paper distributes samples in contiguous blocks of N/p rows
// per process, with the per-sample data structures (alpha, gamma, index
// set, label) co-located with the samples for spatial locality.
type Partition struct {
	Rank, P int
	Lo, Hi  int            // global row range [Lo, Hi)
	X       *sparse.Matrix // local block (Hi-Lo rows)
	Y       []float64      // local labels
	N       int            // global sample count
}

// BlockRange returns the global row range [lo, hi) owned by rank q of p
// over n rows, using the balanced formula floor(q*n/p).
func BlockRange(n, p, q int) (lo, hi int) {
	return q * n / p, (q + 1) * n / p
}

// NewPartition extracts rank q's block of (x, y).
func NewPartition(x *sparse.Matrix, y []float64, p, q int) (*Partition, error) {
	n := x.Rows()
	if len(y) != n {
		return nil, fmt.Errorf("core: %d labels for %d rows", len(y), n)
	}
	if p <= 0 || q < 0 || q >= p {
		return nil, fmt.Errorf("core: invalid rank %d of %d", q, p)
	}
	if p > n {
		return nil, fmt.Errorf("core: more ranks (%d) than samples (%d)", p, n)
	}
	lo, hi := BlockRange(n, p, q)
	sub, err := x.SubMatrix(lo, hi)
	if err != nil {
		return nil, err
	}
	return &Partition{
		Rank: q, P: p, Lo: lo, Hi: hi,
		X: sub,
		Y: append([]float64(nil), y[lo:hi]...),
		N: n,
	}, nil
}

// Local converts a global row index to a local one; ok is false when the
// row is not owned by this partition.
func (pt *Partition) Local(g int) (int, bool) {
	if g < pt.Lo || g >= pt.Hi {
		return 0, false
	}
	return g - pt.Lo, true
}

// Global converts a local row index to the global index space.
func (pt *Partition) Global(l int) int { return pt.Lo + l }

// Len returns the number of local rows.
func (pt *Partition) Len() int { return pt.Hi - pt.Lo }
