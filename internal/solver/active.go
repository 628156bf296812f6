package solver

import (
	"math"
	"sync"

	"repro/internal/mpi"
)

// minParallelGradient is the active count below which Update stays on the
// calling goroutine, as an OpenMP if clause keeps a small loop serial:
// under it, starting and joining the workers costs more than the update
// they would share (BenchmarkGradientUpdate).
const minParallelGradient = 1 << 14

// ActiveSet is the sample state both solvers sweep: labels, alphas and
// gradients, the box, and the active samples that shrinking has not
// eliminated. It owns the loops that apply this package's primitives:
// violator selection (Eq. 3/4), the Eq. 2 gradient update, the Eq. 9
// shrink condition and libsvm's second-order partner. Keerthi et al. keep
// b_up and b_low current during the update sweep, and so does Update: it
// records the violators over the survivors, and Violators hands them to
// the next selection without a second pass.
//
// The owner installs the working pair's new alphas before Update, and
// calls Reset whenever it changes alphas, gradients or the active set
// outside Update (a warm start before the first selection is covered by
// the Reset that sets the set up).
type ActiveSet struct {
	Y, Alpha, Gamma []float64
	// Box gives sample i the upper bound Box[i]; nil means C for every
	// sample.
	Box []float64
	C   float64
	// Lo is the global index of sample 0: a violator's Loc is Lo+i.
	Lo int
	// Active flags the samples not eliminated, and Idx lists them in
	// ascending order, the target list of every kernel row. Update
	// compacts Idx and Reset refills it, so len(Idx) is the active count.
	Active []bool
	Idx    []int

	// up and low are the violators over Idx that the last Update
	// recorded; recorded is false when they must be scanned.
	up, low  mpi.ValLoc
	recorded bool
}

// Reset re-admits every sample and forgets the recorded violators.
func (a *ActiveSet) Reset() {
	n := len(a.Alpha)
	if len(a.Active) != n {
		a.Active = make([]bool, n)
	}
	if cap(a.Idx) < n {
		a.Idx = make([]int, n)
	}
	a.Idx = a.Idx[:n]
	for i := range a.Active {
		a.Active[i] = true
		a.Idx[i] = i
	}
	a.recorded = false
}

// BoxAt returns sample i's upper bound.
func (a *ActiveSet) BoxAt(i int) float64 {
	if a.Box != nil {
		return a.Box[i]
	}
	return a.C
}

// Violators returns the worst up and low violators over the active set
// (Loc -1 for an empty side): the ones the last Update recorded, or a
// Scan when nothing is recorded since the last Reset.
func (a *ActiveSet) Violators() (up, low mpi.ValLoc) {
	if !a.recorded {
		a.up, a.low = a.Scan()
		a.recorded = true
	}
	return a.up, a.low
}

// Scan finds the worst up and low violators over the active set, ties to
// the smaller index, without recording them.
func (a *ActiveSet) Scan() (up, low mpi.ValLoc) {
	up, low = noViolators()
	for _, i := range a.Idx {
		a.observe(i, &up, &low)
	}
	return up, low
}

func noViolators() (up, low mpi.ValLoc) {
	return mpi.ValLoc{Val: math.Inf(1), Loc: -1}, mpi.ValLoc{Val: math.Inf(-1), Loc: -1}
}

// observe folds sample i into the running violators. MinLoc and MaxLoc
// break ties toward the smaller index, so the fold's order does not
// matter.
func (a *ActiveSet) observe(i int, up, low *mpi.ValLoc) {
	y, al, c := a.Y[i], a.Alpha[i], a.BoxAt(i)
	v := mpi.ValLoc{Val: a.Gamma[i], Loc: a.Lo + i}
	if InUp(y, al, c) {
		*up = mpi.MinLoc(*up, v)
	}
	if InLow(y, al, c) {
		*low = mpi.MaxLoc(*low, v)
	}
}

// Update applies the Eq. 2 gradient update with step t to every active
// sample, given the pair's rows rowU and rowL complete over the actives,
// and, when shrink is set, eliminates the samples the Eq. 9 condition
// names for the band (betaUp, betaLow). It compacts Idx to the survivors
// and records their violators for the next Violators. From
// minParallelGradient actives up the sweep is split across workers
// goroutines; every chunk runs the same sweep and the chunks are joined
// in index order, so the result is the serial sweep's, bit for bit.
func (a *ActiveSet) Update(t float64, rowU, rowL []float64, shrink bool, betaUp, betaLow float64, workers int) {
	if w := min(workers, len(a.Idx)); w > 1 && len(a.Idx) >= minParallelGradient {
		a.fanOut(w, t, rowU, rowL, shrink, betaUp, betaLow)
		return
	}
	kept, up, low := a.sweep(t, rowU, rowL, shrink, betaUp, betaLow, a.Idx)
	a.Idx = a.Idx[:kept]
	a.up, a.low, a.recorded = up, low, true
}

// fanOut runs sweep over w disjoint chunks of Idx, one goroutine each,
// then moves each chunk's survivors down behind the previous chunk's and
// folds the chunks' violators in chunk order.
func (a *ActiveSet) fanOut(w int, t float64, rowU, rowL []float64, shrink bool, betaUp, betaLow float64) {
	type part struct {
		lo, kept int
		up, low  mpi.ValLoc
	}
	parts := make([]part, w)
	m := len(a.Idx)
	var wg sync.WaitGroup
	for k := range parts {
		lo, hi := k*m/w, (k+1)*m/w
		wg.Add(1)
		go func(p *part) {
			defer wg.Done()
			p.lo = lo
			p.kept, p.up, p.low = a.sweep(t, rowU, rowL, shrink, betaUp, betaLow, a.Idx[lo:hi])
		}(&parts[k])
	}
	wg.Wait()
	up, low := noViolators()
	kept := 0
	for _, p := range parts {
		kept += copy(a.Idx[kept:], a.Idx[p.lo:p.lo+p.kept])
		up, low = mpi.MinLoc(up, p.up), mpi.MaxLoc(low, p.low)
	}
	a.Idx = a.Idx[:kept]
	a.up, a.low, a.recorded = up, low, true
}

// sweep is Update over the active indices idx: it applies Eq. 2, and Eq. 9
// when shrink is set, moves the survivors to the front of idx and returns
// their count and violators.
func (a *ActiveSet) sweep(t float64, rowU, rowL []float64, shrink bool, betaUp, betaLow float64, idx []int) (kept int, up, low mpi.ValLoc) {
	up, low = noViolators()
	for _, i := range idx {
		a.Gamma[i] += GradientDelta(t, rowU[i], rowL[i])
		if shrink && Shrinkable(Classify(a.Y[i], a.Alpha[i], a.BoxAt(i)), a.Gamma[i], betaUp, betaLow) {
			a.Active[i] = false
			continue
		}
		idx[kept] = i
		kept++
		a.observe(i, &up, &low)
	}
	return kept, up, low
}

// Partner picks the partner of i_up by libsvm's second-order rule (Fan,
// Chen & Lin 2005): among the active low-side samples j with
// gamma_j > gU, the one of maximal analytic gain (gamma_j - gU)^2 / eta_uj,
// eta_uj = kUU + diag[j] - 2*rowU[j] floored at Tau. It returns the gain
// and the global index Lo+j, ties to the smaller index, or Loc -1 when no
// sample qualifies. rowU is i_up's kernel row over the actives and diag
// the kernel diagonal.
func (a *ActiveSet) Partner(gU, kUU float64, rowU, diag []float64) mpi.ValLoc {
	best := mpi.ValLoc{Val: math.Inf(-1), Loc: -1}
	for _, j := range a.Idx {
		if !InLow(a.Y[j], a.Alpha[j], a.BoxAt(j)) {
			continue
		}
		b := a.Gamma[j] - gU
		if b <= 0 {
			continue
		}
		eta := kUU + diag[j] - 2*rowU[j]
		if eta <= Tau {
			eta = Tau
		}
		best = mpi.MaxLoc(best, mpi.ValLoc{Val: b * b / eta, Loc: a.Lo + j})
	}
	return best
}
