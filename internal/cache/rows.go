package cache

import (
	"math"
	"slices"

	"repro/internal/kernel"
	"repro/internal/sparse"
)

// Rows is the kernel-row store both solvers take their working pair's rows
// from: a RowCache of rows K(x_key, x_i) over the n target rows of a
// RowPool's matrix, which a lookup completes over the caller's active set.
//
// NaN marks an entry not computed yet. A kernel value never goes stale, so
// shrinking needs no invalidation: a lookup computes only the active
// entries its row lacks. complete[key] is the active-set generation in
// which row key was last completed; shrinking only removes samples, so a
// row completed in the current generation lacks no active entry and is
// returned without a scan. A solver that re-admits samples starts a new
// generation.
//
// When the budget holds no row, two transient rows, one per side of the
// working pair, stand in and are filled over the actives on every lookup.
// They have n entries; a cached row has the width given to NewRows, and
// the entries past n belong to the caller (core keeps K(x_key, x_key)
// there). Entries of a transient row outside the actives are unspecified.
//
// The row returned last stays intact through one more lookup, so a solver
// can hold both rows of its pair (see RowCache.Put). Rows is not safe for
// concurrent use.
type Rows struct {
	cache    *RowCache
	pool     *kernel.RowPool
	n        int
	complete []int
	gen      int
	// Per side: the transient row, the entries a row lacks and their
	// computed values.
	tmp  [2][]float64
	miss [2][]int
	vals [2][]float64
}

// NewRows returns a store of rows width entries wide (at least the pool
// matrix's row count n) keyed by [0, keys), holding as many rows as
// budgetBytes allows, filled through pool.
func NewRows(pool *kernel.RowPool, budgetBytes int64, keys, width int) *Rows {
	ev, _ := pool.Worker(0)
	n := ev.X.Rows()
	r := &Rows{cache: New(budgetBytes, keys, width), pool: pool, n: n, complete: make([]int, keys), gen: 1}
	for side := range r.miss {
		r.miss[side] = make([]int, 0, n)
		r.vals[side] = make([]float64, n)
	}
	return r
}

// Row returns row key, whose pivot is the sample pivot with squared norm
// norm, complete at every index in actives. side (0 or 1) names the
// transient row used when the budget holds none. Each call is one cache
// lookup.
func (r *Rows) Row(side, key int, pivot sparse.Row, norm float64, actives []int) []float64 {
	row, miss := r.lookup(side, key, actives)
	r.fill(side, row, pivot, norm, miss)
	return row
}

// Pair looks up row u, then row l, and completes both over actives. When
// both lack the same entries (two fresh rows, the usual miss) one fused
// pair batch computes them, reading each target's CSR payload once for
// both pivots; otherwise each row gets its own row batch. The values and
// the evaluation count are the same either way.
func (r *Rows) Pair(u, l int, up, low sparse.Row, normUp, normLow float64, actives []int) (rowU, rowL []float64) {
	rowU, missU := r.lookup(0, u, actives)
	rowL, missL := r.lookup(1, l, actives)
	if len(missU) == 0 || !slices.Equal(missU, missL) {
		r.fill(0, rowU, up, normUp, missU)
		r.fill(1, rowL, low, normLow, missL)
		return rowU, rowL
	}
	vu, vl := r.vals[0][:len(missU)], r.vals[1][:len(missU)]
	r.pool.PairRowsInto(up, low, normUp, normLow, missU, vu, vl)
	for k, i := range missU {
		rowU[i], rowL[i] = vu[k], vl[k]
	}
	return rowU, rowL
}

// Complete computes the entries of row, read with Peek, that targets
// lists and the row lacks, in one row batch.
func (r *Rows) Complete(row []float64, pivot sparse.Row, norm float64, targets []int) {
	r.fill(0, row, pivot, norm, r.missing(0, row, targets))
}

// NewGeneration marks every row incomplete: the caller has re-admitted
// samples, so a row completed over the old actives may lack entries.
func (r *Rows) NewGeneration() { r.gen++ }

// Peek returns the cached row for key as RowCache.Peek does.
func (r *Rows) Peek(key int) ([]float64, bool) { return r.cache.Peek(key) }

// Stats returns the cache's hit/miss/eviction counters.
func (r *Rows) Stats() (hits, misses, evictions uint64) { return r.cache.Stats() }

// lookup returns row key and the actives it lacks. A row completed in
// this generation lacks nothing; another cached row lacks its NaN
// entries; a newly admitted row, or side's transient row, lacks every
// active. The caller fills the row at once, so it is marked complete here.
func (r *Rows) lookup(side, key int, actives []int) ([]float64, []int) {
	if row, ok := r.cache.Get(key); ok {
		if r.complete[key] == r.gen {
			return row, nil
		}
		r.complete[key] = r.gen
		return row, r.missing(side, row, actives)
	}
	if row := r.cache.Put(key); row != nil {
		r.complete[key] = r.gen
		return row, actives
	}
	if r.tmp[side] == nil {
		r.tmp[side] = make([]float64, r.n)
	}
	return r.tmp[side], actives
}

// missing lists the indices of idx at which row holds NaN, in side's
// buffer.
func (r *Rows) missing(side int, row []float64, idx []int) []int {
	miss := r.miss[side][:0]
	for _, i := range idx {
		if math.IsNaN(row[i]) {
			miss = append(miss, i)
		}
	}
	return miss
}

// fill computes the entries miss lists of pivot's row in one row batch.
func (r *Rows) fill(side int, row []float64, pivot sparse.Row, norm float64, miss []int) {
	if len(miss) == 0 {
		return
	}
	vals := r.vals[side][:len(miss)]
	r.pool.RowInto(pivot, norm, miss, vals)
	for k, i := range miss {
		row[i] = vals[k]
	}
}
