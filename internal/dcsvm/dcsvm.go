// Package dcsvm implements divide-and-conquer SVM training in the style of
// Hsieh et al.'s DC-SVM and cascade SVMs: the training set is partitioned
// by (kernel-space) k-means clustering, each cluster is solved
// independently and in parallel with one of the repository's existing
// solvers, the per-cluster support vectors and dual variables are
// coalesced into a warm start, and a final warm-started polish solve over
// the support-vector union restores (near-)exactness. Because most
// sub-problem support vectors survive into the global solution, the polish
// converges in a small fraction of a cold solve's iterations, while the
// per-cluster solves see working sets (and hence kernel working sets) that
// are k times smaller — the wall-clock win that opens dataset sizes the
// exact solver alone cannot reach.
//
// The subsystem reuses the existing engines unchanged: cluster sub-solves
// run either the paper's distributed solver (core.TrainParallel) or the
// libsvm-enhanced baseline (smo.Train); coarser hierarchy levels and the
// polish run the baseline with its new warm-start support, which is where
// coalesced alphas pay off.
package dcsvm

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/linear"
	"repro/internal/model"
	"repro/internal/smo"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// withDefaults fills the zero-value defaults of the options dc reads (see
// Train).
func withDefaults(opts solver.Options) solver.Options {
	if opts.Eps <= 0 {
		opts.Eps = 1e-3
	}
	if opts.DC.Clusters <= 0 {
		opts.DC.Clusters = 8
	}
	if opts.DC.Levels <= 0 {
		opts.DC.Levels = 1
	}
	if opts.DC.SubSolver == "" {
		opts.DC.SubSolver = "core"
	}
	if opts.Heuristic == "" {
		opts.Heuristic = core.Original.Name
	}
	if opts.P <= 0 {
		opts.P = 1
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.CacheBytes == 0 {
		opts.CacheBytes = 64 << 20
	}
	return opts
}

// linearFastPath routes cold (no-warm-start) linear-kernel sub-solves
// through internal/linear's dual coordinate descent, which solves them in
// the primal weight vector with zero kernel evaluations. Tests turn it off
// to get the kernel-path reference. The fast path is also skipped when a
// fault plan targets the sub-solver, so crash-recovery runs exercise the
// engine they mean to test.
var linearFastPath = true

// LevelStats reports what one hierarchy level did; slices are indexed by
// cluster in level-local order.
type LevelStats struct {
	Level         int // 1-based
	Clusters      int
	ClusterSizes  []int
	SubIterations []int64
	SubSVCounts   []int
	Skipped       int // clusters not solved (single-class or too small)
	KernelEvals   uint64
	ClusterTime   time.Duration // k-means partitioning
	SolveTime     time.Duration // parallel sub-solves
}

// Stats reports a whole divide-and-conquer run. The embedded counters sum
// every level's sub-solves and the polish: Iterations includes
// PolishIterations, and Converged is the polish's.
type Stats struct {
	solver.Stats
	Levels           []LevelStats
	CoalescedSVs     int // support-vector union entering the polish
	PolishIterations int64
	PolishTime       time.Duration
	Total            time.Duration
}

// checkpointer accumulates divide-and-conquer progress into one full-length
// alpha vector and persists it after every completed unit of work (cluster
// solve, level, polish stride). Cluster goroutines share it, so merges are
// serialized under a mutex. Snapshots always carry a constraint-feasible
// alpha (balanceAlpha only scales down), so a checkpoint written mid-
// hierarchy can warm-start any engine.
type checkpointer struct {
	mu      sync.Mutex
	w       *ckpt.Writer
	y       []float64
	c       float64
	seed    int64
	fp      uint64
	partial []float64
	events  int64 // completed merges, stamped as the snapshot's Iteration
}

func newCheckpointer(w *ckpt.Writer, x *sparse.Matrix, y []float64, c float64, seed int64) *checkpointer {
	return &checkpointer{
		w: w, y: y, c: c, seed: seed,
		fp:      ckpt.Fingerprint(x, y),
		partial: make([]float64, x.Rows()),
	}
}

// clusterDone merges one finished level-0 cluster's alphas (in original
// dataset indices) and saves a generation.
func (ck *checkpointer) clusterDone(orig []int, local []float64) error {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	for i, a := range local {
		if a > 0 {
			ck.partial[orig[i]] = a
		}
	}
	ck.events++
	return ck.saveLocked()
}

// levelDone replaces the accumulated vector with a completed level's
// coalesced solution scattered back onto full coordinates.
func (ck *checkpointer) levelDone(full []float64) error {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	copy(ck.partial, full)
	ck.events++
	return ck.saveLocked()
}

func (ck *checkpointer) saveLocked() error {
	return ck.w.Save(&ckpt.State{
		Solver:      ckpt.SolverDCSVM,
		Iteration:   ck.events,
		Seed:        ck.seed,
		Fingerprint: ck.fp,
		N:           len(ck.partial),
		Alpha:       balanceAlpha(ck.partial, ck.y, ck.c),
	})
}

// Train runs divide-and-conquer training on (x, y) with labels in {+1,-1}
// and kernel k, and returns the final model plus per-level statistics. It
// reads these options (zero values in parentheses):
//
//   - C, Eps (1e-3): the QP every sub-solve and the polish solve.
//   - DC.Clusters (8) k-means clusters at the finest level, and DC.Levels
//     (1) hierarchy levels: level l uses max(2, Clusters>>l) clusters over
//     the support-vector union coalesced from level l-1, cascade-style.
//     Clusters = 1 degenerates to a single full solve.
//   - DC.KernelSpace clusters in kernel feature space instead of input
//     space; Seed makes the clustering, and so the whole run, deterministic.
//   - DC.SubSolver ("core") names the registered engine for finest-level
//     sub-solves: any non-composite kernel classifier. Coarser levels and
//     the polish always use smo, whose warm start consumes the coalesced
//     alphas. Heuristic (Original), P (1, capped at the cluster size) and
//     MaxIter (solver default) apply to each sub-solve whose engine takes
//     them; Workers (GOMAXPROCS) bounds the clusters solved concurrently;
//     CacheBytes (64 MiB) is the kernel cache of each smo solve.
//   - DC.PolishMaxIter caps the polish (early stop; 0 runs it to
//     convergence). The polish's gradient reconstruction from the coalesced
//     warm start already yields a coherent global decision function, and a
//     bounded number of stitching iterations recovers most of the accuracy.
//   - DC.PolishFull polishes over the full training set, warm-started from
//     the coalesced union solution, instead of the support-vector union
//     only. The union polish can leave samples outside the union violating
//     KKT on the full QP, so it is near-exact but not eps-optimal; the full
//     polish restores eps-optimality at the cost of a warm solve over all n.
//   - Checkpoint persists progress as crash-consistent generations in
//     full-problem coordinates: after each finished level-0 cluster, after
//     each level, and every CheckpointEvery polish iterations when the
//     polish runs over the full training set. Every snapshot's alpha is
//     projected onto the dual constraints, so any engine can resume from it.
//   - InitialAlpha restarts a previous run from a checkpoint's full-length
//     alpha: the divide levels are skipped and the run goes straight to a
//     full-problem polish from the (re-balanced) vector.
//   - Faults applies an mpi fault plan to the level-0 sub-solve of cluster
//     DC.SubFaultCluster when the sub-solver accepts fault plans.
func Train(x *sparse.Matrix, y []float64, k kernel.Params, opts solver.Options) (*model.Model, *Stats, error) {
	n := x.Rows()
	if n < 2 {
		return nil, nil, fmt.Errorf("dcsvm: need at least 2 samples, got %d", n)
	}
	if len(y) != n {
		return nil, nil, fmt.Errorf("dcsvm: %d labels for %d samples", len(y), n)
	}
	if opts.C <= 0 {
		return nil, nil, fmt.Errorf("dcsvm: C must be positive, got %v", opts.C)
	}
	if err := k.Validate(); err != nil {
		return nil, nil, err
	}
	opts = withDefaults(opts)
	if _, err := core.HeuristicByName(opts.Heuristic); err != nil {
		return nil, nil, err
	}
	hasPos, hasNeg := false, false
	for i, v := range y {
		switch v {
		case 1:
			hasPos = true
		case -1:
			hasNeg = true
		default:
			return nil, nil, fmt.Errorf("dcsvm: label %d is %v, want +1 or -1", i, v)
		}
	}
	if !hasPos || !hasNeg {
		return nil, nil, errors.New("dcsvm: training set must contain both classes")
	}
	if _, err := subEngine(opts.DC.SubSolver); err != nil {
		return nil, nil, err
	}
	if opts.InitialAlpha != nil && len(opts.InitialAlpha) != n {
		return nil, nil, fmt.Errorf("dcsvm: resume alpha holds %d entries for %d samples", len(opts.InitialAlpha), n)
	}

	start := time.Now()
	st := &Stats{}
	var ck *checkpointer
	if opts.Checkpoint != nil {
		ck = newCheckpointer(opts.Checkpoint, x, y, opts.C, opts.Seed)
	}
	curX, curY := x, y
	var curA []float64 // nil = cold (level 0 input is the raw data)

	if opts.InitialAlpha == nil {
		for l := 0; l < opts.DC.Levels && curX.Rows() >= 2; l++ {
			kl := opts.DC.Clusters >> l
			if kl < 2 {
				kl = 2
			}
			nx, ny, na, ls, err := runLevel(curX, curY, curA, kl, l, k, opts, ck)
			if err != nil {
				return nil, nil, err
			}
			st.Levels = append(st.Levels, *ls)
			st.KernelEvals += ls.KernelEvals
			for _, it := range ls.SubIterations {
				st.Iterations += it
			}
			if nx == nil || nx.Rows() == 0 {
				// Degenerate partition (every cluster pure or tiny): no
				// sub-solution to build on; the polish below falls back to a
				// cold solve of the current level's input.
				curA = nil
				break
			}
			curX, curY, curA = nx, ny, na
			if ck != nil {
				// Level boundary: scatter the coalesced union solution back
				// onto full-problem coordinates and persist it.
				full, err := scatterAlpha(x, y, curX, curY, warmStartAlpha(curA, curY, opts.C))
				if err != nil {
					return nil, nil, err
				}
				if err := ck.levelDone(full); err != nil {
					return nil, nil, err
				}
			}
		}
		if curA != nil {
			st.CoalescedSVs = curX.Rows()
		}
	}

	// Polish: a warm-started exact solve over the support-vector union —
	// or, with PolishFull (and always on resume), over the full training
	// set with the union's alphas scattered back onto their original rows.
	// (On the degenerate fallback the polish is a cold solve of the
	// current level's input.)
	t0 := time.Now()
	po := solver.Options{C: opts.C, Eps: opts.Eps, CacheBytes: opts.CacheBytes}
	po.MaxIter = opts.DC.PolishMaxIter
	polishX, polishY := curX, curY
	switch {
	case opts.InitialAlpha != nil:
		// Re-balance rather than trust the file: balanceAlpha only scales
		// down, so any loaded vector becomes a feasible warm start.
		po.InitialAlpha = balanceAlpha(opts.InitialAlpha, y, opts.C)
		polishX, polishY = x, y
	case opts.DC.PolishFull:
		if curA != nil {
			full, err := scatterAlpha(x, y, curX, curY, warmStartAlpha(curA, curY, opts.C))
			if err != nil {
				return nil, nil, err
			}
			po.InitialAlpha = full
		}
		polishX, polishY = x, y
	case curA != nil:
		po.InitialAlpha = warmStartAlpha(curA, curY, opts.C)
	}
	if ck != nil && polishX.Rows() == n {
		// The polish runs in full-problem coordinates, so smo's periodic
		// checkpoints are directly resumable; union-sized polish snapshots
		// would carry the wrong N and fingerprint, so those stay with the
		// level-boundary generations instead.
		po.Checkpoint, po.CheckpointEvery = opts.Checkpoint, opts.CheckpointEvery
		po.Seed, po.CheckpointFingerprint = opts.Seed, ck.fp
	}
	sc := smo.FromOptions(k, po)
	sc.CheckpointLabel = ckpt.SolverDCSVM
	res, err := smo.Train(polishX, polishY, sc)
	if err != nil {
		return nil, nil, fmt.Errorf("dcsvm: polish: %w", err)
	}
	st.PolishTime = time.Since(t0)
	st.PolishIterations = res.Iterations
	st.Iterations += res.Iterations
	st.Converged = res.Converged
	st.KernelEvals += res.KernelEvals
	m := res.Model
	m.TrainSamples = n
	st.Total = time.Since(start)
	return m, st, nil
}

// runLevel partitions the current problem into k clusters, solves each in
// its own goroutine, and returns the coalesced support-vector union
// (rows, labels, alphas) forming the next level's warm-started problem.
func runLevel(x *sparse.Matrix, y, alpha []float64, k, level int, kp kernel.Params, opts solver.Options, ck *checkpointer) (*sparse.Matrix, []float64, []float64, *LevelStats, error) {
	ls := &LevelStats{Level: level + 1}
	t0 := time.Now()
	cl, err := clusterRows(x, k, opts.Seed+int64(level), opts.DC.KernelSpace, kp)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	ls.Clusters = cl.K
	ls.ClusterSizes = append([]int(nil), cl.Sizes...)

	// Group rows by cluster so each sub-solve sees a contiguous zero-copy
	// view of the (one-time) permuted matrix.
	order := make([]int, 0, x.Rows())
	bounds := make([]int, cl.K+1)
	for c := 0; c < cl.K; c++ {
		bounds[c] = len(order)
		for i, a := range cl.Assign {
			if a == c {
				order = append(order, i)
			}
		}
	}
	bounds[cl.K] = len(order)
	px, err := x.SelectRows(order)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	py := permute(y, order)
	var pa []float64
	if alpha != nil {
		pa = permute(alpha, order)
	}
	ls.ClusterTime = time.Since(t0)

	type subResult struct {
		model *model.Model
		iters int64
		svs   int
		evals uint64
		// passthrough carries an unsolvable warm cluster's rows forward
		// unchanged so its support vectors are not lost mid-hierarchy.
		passX *sparse.Matrix
		passY []float64
		passA []float64
		err   error
	}
	results := make([]subResult, cl.K)
	sem := make(chan struct{}, opts.Workers)
	var wg sync.WaitGroup
	t1 := time.Now()
	for c := 0; c < cl.K; c++ {
		lo, hi := bounds[c], bounds[c+1]
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[c] = solveCluster(px, py, pa, c, lo, hi, level, kp, opts)
			r := &results[c]
			if ck == nil || level > 0 || r.err != nil || r.model == nil {
				return
			}
			// Level-0 progress checkpoint: the permutation maps cluster row
			// i back to original dataset row order[lo+i], so this cluster's
			// alphas merge directly into full-problem coordinates.
			view, err := px.RowRangeView(lo, hi)
			if err != nil {
				r.err = err
				return
			}
			sx, sy, sa := r.model.SVTrainingSet()
			local, err := scatterAlpha(view, py[lo:hi], sx, sy, sa)
			if err == nil {
				err = ck.clusterDone(order[lo:hi], local)
			}
			if err != nil {
				r.err = fmt.Errorf("checkpoint: %w", err)
			}
		}(c, lo, hi)
	}
	wg.Wait()
	ls.SolveTime = time.Since(t1)

	var nx *sparse.Matrix
	var ny, na []float64
	appendSet := func(sx *sparse.Matrix, sy, sa []float64) {
		if sx == nil || sx.Rows() == 0 {
			return
		}
		if nx == nil {
			nx = sx
		} else {
			nx = sparse.Append(nx, sx)
		}
		ny = append(ny, sy...)
		na = append(na, sa...)
	}
	for c := range results {
		r := &results[c]
		if r.err != nil {
			return nil, nil, nil, nil, fmt.Errorf("dcsvm: level %d cluster %d (%d rows): %w",
				level+1, c, bounds[c+1]-bounds[c], r.err)
		}
		ls.SubIterations = append(ls.SubIterations, r.iters)
		ls.SubSVCounts = append(ls.SubSVCounts, r.svs)
		ls.KernelEvals += r.evals
		switch {
		case r.model != nil:
			appendSet(r.model.SVTrainingSet())
		case r.passX != nil:
			appendSet(r.passX, r.passY, r.passA)
		default:
			ls.Skipped++
		}
	}
	return nx, ny, na, ls, nil
}

// solveCluster trains one cluster's rows [lo, hi) of the permuted problem.
func solveCluster(px *sparse.Matrix, py, pa []float64, cluster, lo, hi, level int, kp kernel.Params, opts solver.Options) (r struct {
	model *model.Model
	iters int64
	svs   int
	evals uint64
	passX *sparse.Matrix
	passY []float64
	passA []float64
	err   error
}) {
	size := hi - lo
	pure := true
	for i := lo + 1; i < hi; i++ {
		if py[i] != py[lo] {
			pure = false
			break
		}
	}
	if size < 2 || pure {
		// No binary sub-problem to solve. A pure cluster's isolated
		// optimum is alpha = 0, so cold clusters contribute nothing; warm
		// clusters pass their rows (previous-level support vectors)
		// through so the hierarchy does not silently drop them.
		if pa != nil {
			var idx []int
			for i := lo; i < hi; i++ {
				if pa[i] > 0 {
					idx = append(idx, i)
				}
			}
			if len(idx) > 0 {
				sx, err := px.SelectRows(idx)
				if err != nil {
					r.err = err
					return r
				}
				r.passX = sx
				r.passY = permute(py, idx)
				r.passA = permute(pa, idx)
			}
		}
		return r
	}

	view, err := px.RowRangeView(lo, hi)
	if err != nil {
		r.err = err
		return r
	}
	yv := py[lo:hi]
	sub, err := subEngine(opts.DC.SubSolver)
	if err != nil {
		r.err = err
		return r
	}
	subCaps := sub.Capabilities()
	if kp.Type == kernel.Linear && linearFastPath && pa == nil &&
		!(opts.Faults.Enabled() && subCaps.Has(solver.CapFaultInject)) {
		// Linear kernels admit a much cheaper sub-solve: dual coordinate
		// descent on the primal weight vector (internal/linear), touching
		// no kernel rows at all. Only cold solves route here — a warm
		// start carries equality-constrained alphas the bias-free linear
		// dual cannot consume, so warm levels stay on SMO.
		r.model, r.iters, r.svs, r.err = solveLinearCluster(view, yv, cluster, level, kp, opts)
		return r
	}
	sopts := solver.Options{C: opts.C, Eps: opts.Eps, Workers: 1, CacheBytes: opts.CacheBytes}
	sopts.MaxIter = opts.MaxIter
	if level == 0 && pa == nil {
		// Cold finest-level sub-solve: the configured engine, resolved
		// through the solver registry, with only the options its
		// capabilities declare. For "core" and "smo" this reproduces the
		// historical configs bit-for-bit; any other registered kernel
		// classifier (smo2, future engines) slots in the same way.
		if subCaps.Has(solver.CapHeuristics) {
			sopts.Heuristic = opts.Heuristic
		}
		if subCaps.Has(solver.CapDistributed) {
			sopts.P = min(opts.P, size)
		}
		if opts.Faults.Enabled() && cluster == opts.DC.SubFaultCluster && subCaps.Has(solver.CapFaultInject) {
			// Crash-recovery testing: inject the fault plan into exactly one
			// cluster's distributed sub-solve.
			sopts.Faults = opts.Faults
		}
		sres, err := sub.Train(context.Background(), solver.Problem{X: view, Y: yv, Kernel: kp}, sopts)
		if err != nil {
			r.err = err
			return r
		}
		r.model, r.iters, r.svs, r.evals = sres.Model, sres.Iterations, sres.Model.NumSV(), sres.KernelEvals
		return r
	}
	if pa != nil {
		sopts.InitialAlpha = warmStartAlpha(pa[lo:hi], yv, opts.C)
	}
	res, err := smo.Train(view, yv, smo.FromOptions(kp, sopts))
	if err != nil {
		r.err = err
		return r
	}
	r.model, r.iters, r.svs, r.evals = res.Model, res.Iterations, res.Model.NumSV(), res.KernelEvals
	return r
}

// solveLinearCluster is the linear-kernel fast path for one cold cluster:
// dual coordinate descent in the primal weight vector (internal/linear),
// re-expressed as a support-vector model so the hierarchy's coalescing and
// checkpointing (both built on SVTrainingSet) work unchanged. The rebuilt
// model's SV rows are content copies of the cluster view (SelectRows
// preserves row bytes), so checkpoint scatter matches them exactly. The
// solve performs zero kernel evaluations.
func solveLinearCluster(view *sparse.Matrix, yv []float64, cluster, level int, kp kernel.Params, opts solver.Options) (*model.Model, int64, int, error) {
	res, err := linear.Train(view, yv, solver.Options{
		C:    opts.C,
		Eps:  opts.Eps,
		Seed: opts.Seed + 1000003*int64(level+1) + int64(cluster),
	})
	if err != nil {
		return nil, 0, 0, fmt.Errorf("linear fast path: %w", err)
	}
	var idx []int
	var coef []float64
	for i, a := range res.Alpha {
		if a > 0 {
			idx = append(idx, i)
			coef = append(coef, a*yv[i])
		}
	}
	sx, err := view.SelectRows(idx)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("linear fast path: %w", err)
	}
	m := &model.Model{
		Kernel:       kp,
		C:            opts.C,
		SV:           sx,
		Coef:         coef,
		Beta:         0, // bias-free LIBLINEAR convention, same as res.Model
		TrainSamples: view.Rows(),
	}
	return m, res.Iterations, len(idx), nil
}

// warmStartAlpha turns coalesced sub-problem alphas into a start the next
// solve digests quickly. Only at-bound alphas survive: a point at alpha = C
// in its sub-problem is a margin violator there and almost always stays at
// bound in the global solution, so its dual value transfers. Free alphas
// are boundary-sensitive — each sub-problem put its separating surface
// somewhere slightly different — and SMO unwinds stale free values pairwise
// far more slowly than it rediscovers them from zero, so they are dropped.
// The trimmed vector is then balanced onto the equality constraint.
func warmStartAlpha(alpha, y []float64, c float64) []float64 {
	trimmed := make([]float64, len(alpha))
	for i, a := range alpha {
		if a >= c*(1-1e-9) {
			trimmed[i] = c
		}
	}
	return balanceAlpha(trimmed, y, c)
}

// scatterAlpha maps a union-level dual vector back onto the full training
// set for the PolishFull solve. Union rows are content copies of training
// rows (SelectRows and SVTrainingSet both preserve row bytes), so each
// union alpha is assigned to an unused training row with identical content
// and label; identical duplicates are interchangeable for the warm start.
// The scatter moves values without changing them, so the box and equality
// feasibility established by warmStartAlpha carry over.
func scatterAlpha(x *sparse.Matrix, y []float64, ux *sparse.Matrix, uy, ua []float64) ([]float64, error) {
	key := func(r sparse.Row, label float64) string {
		if label > 0 {
			return "+" + r.Key()
		}
		return "-" + r.Key()
	}
	buckets := make(map[string][]int, x.Rows())
	for i := 0; i < x.Rows(); i++ {
		k := key(x.RowView(i), y[i])
		buckets[k] = append(buckets[k], i)
	}
	full := make([]float64, x.Rows())
	for j, a := range ua {
		if a <= 0 {
			continue
		}
		k := key(ux.RowView(j), uy[j])
		idx := buckets[k]
		if len(idx) == 0 {
			return nil, fmt.Errorf("dcsvm: coalesced row %d matches no unused training row — union and training set are inconsistent", j)
		}
		full[idx[0]] = a
		buckets[k] = idx[1:]
	}
	return full, nil
}

// balanceAlpha projects a coalesced warm start onto the dual equality
// constraint sum alpha_i*y_i = 0 by scaling down the heavier side.
// Re-clustering can split a previous level's balanced solution across
// clusters, so the per-cluster restriction is generally unbalanced; the
// scaling keeps the box constraint (it only shrinks alphas) and hands smo
// a feasible start. A one-sided restriction balances to all zeros (cold).
func balanceAlpha(alpha, y []float64, c float64) []float64 {
	out := make([]float64, len(alpha))
	var pos, neg float64
	for i, a := range alpha {
		if a < 0 {
			a = 0
		}
		if a > c {
			a = c
		}
		out[i] = a
		if y[i] > 0 {
			pos += a
		} else {
			neg += a
		}
	}
	if pos == 0 || neg == 0 {
		for i := range out {
			out[i] = 0
		}
		return out
	}
	scale, side := neg/pos, 1.0
	if neg > pos {
		scale, side = pos/neg, -1.0
	}
	for i := range out {
		if y[i] == side {
			out[i] *= scale
		}
	}
	return out
}

// subEngine resolves the configured sub-solver name through the solver
// registry and checks it can actually sub-solve a cluster: a non-composite
// kernel classifier. The composite exclusion prevents dc-inside-dc
// recursion through the registry.
func subEngine(name string) (solver.Engine, error) {
	e, err := solver.Lookup(name)
	if err != nil {
		return nil, fmt.Errorf("dcsvm: sub-solver: %w", err)
	}
	caps := e.Capabilities()
	if caps.Has(solver.CapComposite) || !caps.Has(solver.CapClassify|solver.CapKernels) {
		var ok []string
		for _, cand := range solver.Engines() {
			cc := cand.Capabilities()
			if !cc.Has(solver.CapComposite) && cc.Has(solver.CapClassify|solver.CapKernels) {
				ok = append(ok, cand.Name())
			}
		}
		return nil, fmt.Errorf("dcsvm: engine %q cannot sub-solve clusters — need a non-composite kernel classifier (have: %s)",
			name, strings.Join(ok, ", "))
	}
	return e, nil
}

func permute(v []float64, order []int) []float64 {
	out := make([]float64, len(order))
	for k, i := range order {
		out[k] = v[i]
	}
	return out
}
