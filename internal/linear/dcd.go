package linear

import (
	"math"
	"math/rand"

	"repro/internal/solver"
	"repro/internal/sparse"
)

// trainDCD runs LIBLINEAR-style dual coordinate descent on the L1-hinge
// dual
//
//	min_a 1/2 a'Q a - e'a,  Q_ij = y_i y_j x_i'x_j,  0 <= a_i <= C,
//
// maintaining w = sum_i a_i y_i x_i so the per-coordinate gradient
// G_i = y_i w'x_i - 1 costs one sparse-dense dot and each accepted update
// costs one sparse axpy. Epochs visit the active set in a fresh seeded
// permutation; samples whose projected gradient proves them pinned at a
// bound are shrunk out and only re-examined on the final full-set
// verification pass, exactly as LIBLINEAR's Algorithm 3 does with its
// (M-bar, m-bar) thresholds.
func trainDCD(x sparse.RowMatrix, y []float64, opts solver.Options, shrink bool) *Result {
	n := x.Rows()
	rng := rand.New(rand.NewSource(opts.Seed))

	w := make([]float64, x.Dim())
	alpha := make([]float64, n)
	// Q_ii = ||x_i||^2; a zero row has Q_ii = 0 and its closed-form step
	// degenerates to a jump straight to the violated bound (the projected
	// a - G/0 is +/-Inf, clipped to the box), which is the optimum for it.
	qii := sparse.SquaredNormsOf(x)

	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	nActive := n

	// Shrinking thresholds from the previous epoch's projected-gradient
	// extremes: alpha_i = 0 with G_i > mBarUp (resp. alpha_i = C with
	// G_i < mBarLow) cannot re-enter the working set and is skipped.
	mBarUp, mBarLow := math.Inf(1), math.Inf(-1)

	res := &Result{Alpha: alpha}
	for res.Epochs = 0; res.Epochs < opts.Linear.MaxEpochs; res.Epochs++ {
		rng.Shuffle(nActive, func(i, j int) {
			active[i], active[j] = active[j], active[i]
		})
		maxPG, minPG := math.Inf(-1), math.Inf(1)

		for t := 0; t < nActive; {
			i := active[t]
			r := x.RowView(i)
			g := y[i]*sparse.GatherDense(r, w) - 1

			a := alpha[i]
			var pg float64
			switch {
			case a == 0:
				if shrink && g > mBarUp {
					nActive--
					active[t], active[nActive] = active[nActive], active[t]
					continue
				}
				if g < 0 {
					pg = g
				}
			case a == opts.C:
				if shrink && g < mBarLow {
					nActive--
					active[t], active[nActive] = active[nActive], active[t]
					continue
				}
				if g > 0 {
					pg = g
				}
			default:
				pg = g
			}
			t++

			if pg > maxPG {
				maxPG = pg
			}
			if pg < minPG {
				minPG = pg
			}
			if math.Abs(pg) > 1e-12 {
				na := math.Min(math.Max(a-g/qii[i], 0), opts.C)
				if na != a {
					sparse.AddScaledTo(r, w, (na-a)*y[i])
					alpha[i] = na
					res.Iterations++
				}
			}
		}

		// An epoch that examined nothing (everything shrunk or every
		// projected gradient exactly zero) satisfies any tolerance.
		spread := 0.0
		if nActive > 0 && maxPG > minPG {
			spread = maxPG - minPG
		}
		if spread < opts.Eps {
			if nActive == n {
				res.Converged = true
				res.Epochs++
				break
			}
			// The shrunk problem converged: unshrink and verify the
			// termination criterion over the full set next epoch.
			nActive = n
			mBarUp, mBarLow = math.Inf(1), math.Inf(-1)
			continue
		}
		mBarUp = maxPG
		if mBarUp <= 0 {
			mBarUp = math.Inf(1)
		}
		mBarLow = minPG
		if mBarLow >= 0 {
			mBarLow = math.Inf(-1)
		}
	}

	// Ship a drift-free w rebuilt from the final dual point.
	res.W = rebuildW(x, y, alpha, x.Dim())
	res.Primal, res.Objective = hingeObjectives(x, y, res.W, alpha, opts.C)
	res.Gap = res.Primal - res.Objective
	return res
}
