// Package smo implements the "libsvm-enhanced" baseline of the paper: a
// sequential SMO solver in the Keerthi et al. formulation, with libsvm's
// kernel-row cache and shrinking, whose per-iteration gradient update is
// parallelized across goroutines — the role OpenMP plays in the paper's
// enhancement of libsvm 3.18. Like an OpenMP if clause, the update fans
// out only from minParallelGradient samples up; below that it runs on the
// calling goroutine. The working pair's rows come from cache.Rows, which
// fills two rows that both miss in one fused pass reading each target row
// once.
//
// The paper sets this baseline up generously: libsvm may use "a compute
// node's entire memory as a kernel cache" and all available cores. Both
// knobs are exposed here: Workers, and CacheBytes, whose zero value is
// that generous budget (solver.DefaultCacheBytes, 1 GiB).
package smo

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"repro/internal/cache"
	"repro/internal/ckpt"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// Config controls a baseline training run.
type Config struct {
	Kernel kernel.Params
	C      float64
	Eps    float64 // the paper's user-specified tolerance epsilon

	// Workers is the number of goroutines used for the row fills and, on
	// problems of at least minParallelGradient samples, the per-iteration
	// gradient update (the OpenMP enhancement). 0 means GOMAXPROCS.
	Workers int
	// CacheBytes is the kernel-row cache budget, read by
	// solver.CacheBudget: 0 is its 1 GiB default, negative turns it off.
	CacheBytes int64
	// Shrinking enables libsvm-style shrinking with periodic checks.
	Shrinking bool
	// SecondOrder switches working-set selection from the maximal
	// violating pair (Keerthi et al., the paper's setting) to libsvm's
	// second-order rule: i_up is still the worst violator on the up side,
	// but its partner maximizes the analytic objective gain
	// (gamma_up - gamma_j)^2 / eta_uj. Usually converges in fewer
	// iterations at the cost of one kernel row per selection (reused by
	// the gradient update, so the net extra cost is small).
	SecondOrder bool
	// ShrinkEvery is the iteration period of shrinking checks
	// (libsvm uses min(n, 1000)); 0 means that default.
	ShrinkEvery int
	// Control carries the iteration cap, the warm start and the
	// checkpoint sink. A warm start rebuilds the gradients once from the
	// non-zero entries of InitialAlpha — the cost of one gradient
	// reconstruction — and a start at the optimum converges in zero
	// iterations; the divide-and-conquer trainer polishes coalesced
	// per-cluster solutions this way. A start that violates the dual's
	// equality constraint is rejected, since pair updates preserve it.
	// A killed run re-enters through InitialAlpha with a loaded
	// snapshot's alphas; CheckpointFingerprint is computed from (x, y)
	// when zero.
	solver.Control

	// LinearTerm is the per-sample linear term p_i of the generalized dual
	//
	//	min ½ sum_ij alpha_i alpha_j y_i y_j K_ij + sum_i p_i alpha_i
	//
	// in which the classification dual is p_i = -1 (nil selects it, and is
	// bit-identical to the historical behavior). Task formulations
	// (internal/tasks) use it to express epsilon-SVR's per-sample terms
	// epsilon -/+ z_i and the one-class SVM's zero linear term. The
	// gradient bookkeeping generalizes transparently: gamma_i starts at
	// y_i*p_i and the pairwise updates are unchanged.
	LinearTerm []float64
	// BoxC, when non-nil, gives each sample its own upper bound
	// [0, BoxC[i]] instead of the uniform [0, C]. C must still be positive
	// (it scales tolerance bounds and is recorded in the model); solvers
	// that pass BoxC typically set C to the maximum entry.
	BoxC []float64
	// EqualityTarget is the value of sum_i alpha_i*y_i the dual's equality
	// constraint pins (0 for classification and epsilon-SVR, 1 for the
	// one-class SVM). SMO pair updates preserve the sum, so a nonzero
	// target requires InitialAlpha meeting it; TrainQP validates that.
	EqualityTarget float64

	// skipModel suppresses assembling a classifier model in the result;
	// TrainQP sets it because task solvers (SVR's doubled variables)
	// assemble their own model from the raw dual point.
	skipModel bool
	// RecordTrace records the run's shrink/reconstruction schedule for the
	// performance model (used when modeling the baseline at full dataset
	// size, where its kernel cache no longer fits).
	RecordTrace bool

	// CheckpointSeed is recorded in each snapshot for provenance;
	// CheckpointLabel overrides the solver kind stamped into them (the
	// divide-and-conquer trainer labels its polish checkpoints "dcsvm").
	CheckpointSeed  int64
	CheckpointLabel string
}

func (c *Config) withDefaults(n int) Config {
	out := *c
	if out.Eps <= 0 {
		out.Eps = 1e-3
	}
	if out.Workers <= 0 {
		out.Workers = runtime.GOMAXPROCS(0)
	}
	if out.ShrinkEvery <= 0 {
		out.ShrinkEvery = min(n, 1000)
	}
	if out.MaxIter <= 0 {
		out.MaxIter = 200_000_000
	}
	out.CacheBytes = solver.CacheBudget(out.CacheBytes)
	return out
}

// Result carries the trained model and training statistics.
type Result struct {
	Model *model.Model
	// Alpha is the final dual point (one entry per sample). TrainQP
	// callers assemble task-specific models from it; Train fills it too so
	// warm-start chains need not recover alphas from the model.
	Alpha []float64
	// Beta is the threshold of the verified band (the model's rho);
	// meaningful even when Model is nil (TrainQP).
	Beta float64
	solver.Stats
	Trace *trace.Trace // non-nil when Config.RecordTrace
}

// Train runs the baseline SMO solver on (x, y) with labels in {+1, -1}.
func Train(x *sparse.Matrix, y []float64, cfg Config) (*Result, error) {
	hasPos, hasNeg := false, false
	for _, v := range y {
		switch v {
		case 1:
			hasPos = true
		case -1:
			hasNeg = true
		}
	}
	if len(y) > 0 && (!hasPos || !hasNeg) {
		return nil, errors.New("smo: training set must contain both classes")
	}
	return train(x, y, cfg)
}

// TrainQP runs the solver on a generalized QP: labels are constraint signs
// in {+1, -1} (a single sign throughout is allowed — the one-class SVM has
// all +1), LinearTerm and BoxC shape the objective and feasible box, and
// EqualityTarget pins sum_i alpha_i*y_i. It returns the raw dual point
// (Result.Alpha, Result.Beta) without assembling a classifier model;
// internal/tasks builds task-specific models from it.
func TrainQP(x *sparse.Matrix, y []float64, cfg Config) (*Result, error) {
	cfg.skipModel = true
	if cfg.EqualityTarget != 0 && cfg.InitialAlpha == nil {
		return nil, fmt.Errorf("smo: equality target %v is unreachable from the cold start alpha=0 (pair updates preserve sum alpha*y); provide a feasible InitialAlpha", cfg.EqualityTarget)
	}
	return train(x, y, cfg)
}

func train(x *sparse.Matrix, y []float64, cfg Config) (*Result, error) {
	n := x.Rows()
	if n < 2 {
		return nil, fmt.Errorf("smo: need at least 2 samples, got %d", n)
	}
	if len(y) != n {
		return nil, fmt.Errorf("smo: %d labels for %d samples", len(y), n)
	}
	if cfg.C <= 0 {
		return nil, fmt.Errorf("smo: C must be positive, got %v", cfg.C)
	}
	if err := cfg.Kernel.Validate(); err != nil {
		return nil, err
	}
	for i, v := range y {
		if v != 1 && v != -1 {
			return nil, fmt.Errorf("smo: label %d is %v, want +1 or -1", i, v)
		}
	}
	if cfg.LinearTerm != nil && len(cfg.LinearTerm) != n {
		return nil, fmt.Errorf("smo: %d linear-term entries for %d samples", len(cfg.LinearTerm), n)
	}
	if cfg.BoxC != nil {
		if len(cfg.BoxC) != n {
			return nil, fmt.Errorf("smo: %d box bounds for %d samples", len(cfg.BoxC), n)
		}
		for i, c := range cfg.BoxC {
			if math.IsNaN(c) || c <= 0 {
				return nil, fmt.Errorf("smo: box bound %d is %v, want positive", i, c)
			}
		}
	}
	if cfg.InitialAlpha != nil {
		if err := validateInitialAlpha(cfg.InitialAlpha, y, &cfg); err != nil {
			return nil, err
		}
	}

	s := newState(x, y, cfg.withDefaults(n))
	if s.cfg.Checkpoint != nil && s.cfg.CheckpointFingerprint == 0 {
		s.cfg.CheckpointFingerprint = ckpt.Fingerprint(x, y)
	}
	if cfg.InitialAlpha != nil {
		s.warmStart(cfg.InitialAlpha)
	}
	if err := s.run(); err != nil {
		return nil, err
	}
	return s.result(), nil
}

// state is the mutable solver state.
type state struct {
	cfg    Config
	x      *sparse.Matrix
	y      []float64
	alpha  []float64
	gamma  []float64
	active []bool
	// activeIdx lists the active samples in ascending order: the target
	// list of every kernel row. shrink compacts it and unshrinkAll resets
	// it, so len(activeIdx) is the active-set size.
	activeIdx []int

	ev   *kernel.Evaluator
	pool *kernel.RowPool // batched row engine, one (SubEvaluator, Scratch) per worker
	rows *cache.Rows     // the pair rows K(x_u, .), filled through pool
	diag []float64       // K(i,i), precomputed for second-order selection

	iter            int64
	shrinkEvents    int
	reconstructions int
	converged       bool
	warm            bool // warm-started from a non-zero dual point
	trace           *trace.Trace

	betaUp, betaLow float64
	iUp, iLow       int
}

func newState(x *sparse.Matrix, y []float64, cfg Config) *state {
	n := x.Rows()
	s := &state{
		cfg:       cfg,
		x:         x,
		y:         y,
		alpha:     make([]float64, n),
		gamma:     make([]float64, n),
		active:    make([]bool, n),
		activeIdx: make([]int, n),
		ev:        kernel.NewEvaluator(cfg.Kernel, x),
	}
	for i := 0; i < n; i++ {
		// Algorithm 1 line 1: gamma_i <- y_i*p_i, alpha_i <- 0. The
		// classification p_i = -1 gives the historical -y_i (float
		// negation is exact, so y*(-1) is bit-identical to -y).
		s.gamma[i] = y[i] * s.pAt(i)
		s.active[i] = true
		s.activeIdx[i] = i
	}
	s.pool = kernel.NewRowPool(s.ev, cfg.Workers)
	s.rows = cache.NewRows(s.pool, cfg.CacheBytes, n, n)
	if cfg.RecordTrace {
		s.trace = trace.New("libsvm-enhanced", n, x.AvgRowNNZ(), cfg.Eps)
	}
	if cfg.SecondOrder {
		s.diag = make([]float64, n)
		s.ev.DiagInto(s.diag)
	}
	return s
}

// validateInitialAlpha rejects warm starts that violate the box or
// equality constraint of the dual; those are not fixable by SMO updates.
func validateInitialAlpha(alpha, y []float64, cfg *Config) error {
	if len(alpha) != len(y) {
		return fmt.Errorf("smo: %d initial alphas for %d samples", len(alpha), len(y))
	}
	var eq, mass float64
	for i, a := range alpha {
		c := cfg.C
		if cfg.BoxC != nil {
			c = cfg.BoxC[i]
		}
		if math.IsNaN(a) || a < 0 || a > c*(1+1e-9) {
			return fmt.Errorf("smo: initial alpha %d = %v outside [0, C=%v]", i, a, c)
		}
		eq += a * y[i]
		mass += a
	}
	if math.Abs(eq-cfg.EqualityTarget) > 1e-6*(1+mass) {
		return fmt.Errorf("smo: initial alphas violate sum alpha_i*y_i = %v (got %v)", cfg.EqualityTarget, eq)
	}
	return nil
}

// boxAt returns sample i's upper bound: BoxC[i] when per-sample boxes are
// set, the uniform C otherwise.
func (s *state) boxAt(i int) float64 {
	if s.cfg.BoxC != nil {
		return s.cfg.BoxC[i]
	}
	return s.cfg.C
}

// pAt returns sample i's linear term, -1 (classification) when unset.
func (s *state) pAt(i int) float64 {
	if s.cfg.LinearTerm != nil {
		return s.cfg.LinearTerm[i]
	}
	return -1
}

// warmStart installs the initial dual point and rebuilds every gradient
// from its non-zero entries: gamma_i = sum_j alpha_j y_j K(j,i) + y_i*p_i.
//
// The rebuild is row-driven through the kernel cache rather than
// target-driven like reconstruction: each support vector's full row is
// looked up once and accumulated into every gradient.
// The eval count is the same nSV*n either way, but the iterations that
// follow work almost entirely on these same support vectors, so the rows
// computed here are cache hits later — the warm start doubles as a
// prefetch instead of work the cache would repeat from scratch.
func (s *state) warmStart(alpha0 []float64) {
	for i, a := range alpha0 {
		if c := s.boxAt(i); a > c {
			a = c // tolerated rounding excess from validateInitialAlpha
		}
		s.alpha[i] = a
	}
	for j, a := range s.alpha {
		if a == 0 {
			continue // gamma already holds the cold start y_j*p_j
		}
		s.warm = true
		// Everything is active, so the row is complete over all samples.
		row := s.rows.Row(0, j, s.x.RowView(j), s.ev.Norm(j), s.activeIdx)
		c := a * s.y[j]
		for i, v := range row {
			s.gamma[i] += c * v
		}
	}
}

// selectPair scans the active set for the worst KKT violators (Eq. 3).
// The betas always come from the maximal violators (they define the
// termination and shrinking band); with second-order selection the partner
// i_low is re-picked afterwards by analytic gain.
func (s *state) selectPair() {
	s.betaUp, s.betaLow = math.Inf(1), math.Inf(-1)
	s.iUp, s.iLow = -1, -1
	for i := range s.alpha {
		if !s.active[i] {
			continue
		}
		if solver.InUp(s.y[i], s.alpha[i], s.boxAt(i)) && s.gamma[i] < s.betaUp {
			s.betaUp, s.iUp = s.gamma[i], i
		}
		if solver.InLow(s.y[i], s.alpha[i], s.boxAt(i)) && s.gamma[i] > s.betaLow {
			s.betaLow, s.iLow = s.gamma[i], i
		}
	}
}

// selectSecondOrder re-picks i_low to maximize the objective gain
// (gamma_up - gamma_j)^2 / eta for violating partners j, given the kernel
// row of i_up (libsvm's WSS; Fan, Chen & Lin 2005). Returns the chosen
// index, or -1 if no partner strictly violates (termination handles it).
func (s *state) selectSecondOrder(u int, rowU []float64) int {
	best, bestGain := -1, math.Inf(-1)
	gU := s.gamma[u]
	kUU := rowU[u]
	for j := range s.alpha {
		if !s.active[j] || !solver.InLow(s.y[j], s.alpha[j], s.boxAt(j)) {
			continue
		}
		b := s.gamma[j] - gU
		if b <= 0 {
			continue
		}
		eta := kUU + s.diag[j] - 2*rowU[j]
		if eta <= solver.Tau {
			eta = solver.Tau
		}
		if gain := b * b / eta; gain > bestGain {
			bestGain, best = gain, j
		}
	}
	return best
}

func (s *state) run() error {
	shrinkCountdown := s.cfg.ShrinkEvery
	if s.warm && s.cfg.Shrinking {
		// A warm start sits near an optimum, so the violation band is
		// already tight: shrinking after the first iteration (instead of
		// waiting a full ShrinkEvery period like a cold start must, while
		// its gradients are still far off) collapses the active set to
		// roughly the support vectors immediately. Fresh kernel rows and
		// working-set scans then cost ~|active| instead of ~n for the
		// whole run; any over-shrunk sample is caught by the
		// reconstruct-and-unshrink pass at convergence, as usual.
		shrinkCountdown = 1
	}
	for {
		s.selectPair()
		if s.iUp < 0 || s.iLow < 0 || solver.Converged(s.betaUp, s.betaLow, s.cfg.Eps) {
			if s.cfg.Shrinking && len(s.activeIdx) < len(s.alpha) {
				// Converged on the active set only: reconstruct the
				// gradients of shrunk samples and re-admit everything,
				// exactly as libsvm does before declaring convergence.
				s.reconstruct()
				s.unshrinkAll()
				shrinkCountdown = s.cfg.ShrinkEvery
				continue
			}
			s.converged = true
			return nil
		}
		if s.iter >= s.cfg.MaxIter {
			return nil // converged stays false
		}
		s.iter++

		u, l := s.iUp, s.iLow
		var rowU, rowL []float64
		if s.cfg.SecondOrder {
			// The partner depends on row u: complete it before looking
			// up row l.
			rowU = s.rows.Row(0, u, s.x.RowView(u), s.ev.Norm(u), s.activeIdx)
			if j := s.selectSecondOrder(u, rowU); j >= 0 {
				l = j
			}
			rowL = s.rows.Row(1, l, s.x.RowView(l), s.ev.Norm(l), s.activeIdx)
		} else {
			rowU, rowL = s.rows.Pair(u, l, s.x.RowView(u), s.x.RowView(l), s.ev.Norm(u), s.ev.Norm(l), s.activeIdx)
		}
		// Both rows are complete over the actives, u and l among them.
		kUU, kLL, kUL := rowU[u], rowL[l], rowU[l]
		rowL[u] = kUL // symmetric
		st := solver.OptimizePairBox(s.gamma[u], s.gamma[l], s.y[u], s.y[l],
			s.alpha[u], s.alpha[l], kUU, kLL, kUL, s.boxAt(u), s.boxAt(l))
		s.alpha[u] = st.NewAlphaUp
		s.alpha[l] = st.NewAlphaLow

		s.updateGradients(st.T, rowU, rowL)

		if s.cfg.Shrinking {
			shrinkCountdown--
			if shrinkCountdown <= 0 {
				s.shrink()
				shrinkCountdown = s.cfg.ShrinkEvery
			}
		}

		if s.cfg.Checkpoint != nil && s.cfg.CheckpointEvery > 0 && s.iter%s.cfg.CheckpointEvery == 0 {
			if err := s.saveCheckpoint(int64(shrinkCountdown)); err != nil {
				return err
			}
		}
	}
}

// saveCheckpoint persists the full solver state as one crash-consistent
// generation. Alpha is the load-bearing field (resume re-enters through the
// InitialAlpha warm start); gradients, active set and shrink bookkeeping
// make the snapshot self-contained for diagnostics.
func (s *state) saveCheckpoint(shrinkCountdown int64) error {
	label := s.cfg.CheckpointLabel
	if label == "" {
		label = ckpt.SolverSMO
	}
	return s.cfg.Checkpoint.Save(&ckpt.State{
		Solver:          label,
		Iteration:       s.iter,
		Seed:            s.cfg.CheckpointSeed,
		Fingerprint:     s.cfg.CheckpointFingerprint,
		N:               len(s.alpha),
		Alpha:           append([]float64(nil), s.alpha...),
		Gamma:           append([]float64(nil), s.gamma...),
		Active:          append([]bool(nil), s.active...),
		ShrinkCountdown: shrinkCountdown,
		ShrinkEvents:    int32(s.shrinkEvents),
		Reconstructions: int32(s.reconstructions),
	})
}

// minParallelGradient is the sample count below which updateGradients
// stays on the calling goroutine, as an OpenMP if clause keeps a small
// loop serial: under it, starting and joining the workers costs more than
// the update they would share (BenchmarkGradientUpdate).
const minParallelGradient = 1 << 14

// updateGradients applies Eq. 2 to every active sample, splitting the range
// across the workers when there are at least minParallelGradient samples.
// The pair's rows are complete over the active set, so the update is pure
// arithmetic — the kernel evaluations all happened in the row fills.
func (s *state) updateGradients(t float64, rowU, rowL []float64) {
	n := len(s.gamma)
	if w := min(s.cfg.Workers, n); w > 1 && n >= minParallelGradient {
		s.gradientFanOut(w, t, rowU, rowL)
		return
	}
	s.gradientChunk(t, rowU, rowL, 0, n)
}

// gradientFanOut applies Eq. 2 in w disjoint chunks, one goroutine each,
// and returns once all are done.
func (s *state) gradientFanOut(w int, t float64, rowU, rowL []float64) {
	n := len(s.gamma)
	done := make(chan struct{}, w)
	for k := 0; k < w; k++ {
		lo, hi := k*n/w, (k+1)*n/w
		go func(lo, hi int) {
			s.gradientChunk(t, rowU, rowL, lo, hi)
			done <- struct{}{}
		}(lo, hi)
	}
	for k := 0; k < w; k++ {
		<-done
	}
}

func (s *state) gradientChunk(t float64, rowU, rowL []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		if !s.active[i] {
			continue
		}
		s.gamma[i] += solver.GradientDelta(t, rowU[i], rowL[i])
	}
}

// shrink applies the Eq. 9 condition using the betas of the last selection.
func (s *state) shrink() {
	kept := s.activeIdx[:0]
	for _, i := range s.activeIdx {
		set := solver.Classify(s.y[i], s.alpha[i], s.boxAt(i))
		if solver.Shrinkable(set, s.gamma[i], s.betaUp, s.betaLow) {
			s.active[i] = false
			continue
		}
		kept = append(kept, i)
	}
	s.activeIdx = kept
	s.shrinkEvents++
	if s.trace != nil {
		s.trace.SetActive(s.iter, len(s.activeIdx))
	}
}

// reconstruct recomputes gamma for inactive samples from scratch:
// gamma_i = sum_{alpha_j>0} alpha_j y_j K(x_j, x_i) - y_i.
func (s *state) reconstruct() {
	s.reconstructions++
	var svs []int
	for j, a := range s.alpha {
		if a > 0 {
			svs = append(svs, j)
		}
	}
	var targets []int
	for i := range s.alpha {
		if !s.active[i] {
			targets = append(targets, i)
		}
	}
	if s.trace != nil {
		s.trace.AddRecon(s.iter, len(targets), len(svs))
	}
	s.rebuildGradients(svs, targets)
}

// rebuildGradients recomputes gamma_i = sum_j alpha_j y_j K(x_i, x_j) - y_i
// for the targets from the support set, fanning target chunks across the
// row pool. Each target is one batched row evaluation against the support
// vectors (pivot = x_i scattered once, the SV rows gathered against it),
// shared by warm start and gradient reconstruction.
func (s *state) rebuildGradients(svs, targets []int) {
	if len(svs) == 0 || len(targets) == 0 {
		return
	}
	coef := make([]float64, len(svs))
	for k, j := range svs {
		coef[k] = s.alpha[j] * s.y[j]
	}
	w := s.pool.Workers()
	if w > len(targets) {
		w = len(targets)
	}
	if w <= 1 {
		ev, scr := s.pool.Worker(0)
		s.reconstructChunk(ev, scr, make([]float64, len(svs)), svs, coef, targets)
		return
	}
	done := make(chan struct{}, w)
	for k := 0; k < w; k++ {
		lo, hi := k*len(targets)/w, (k+1)*len(targets)/w
		ev, scr := s.pool.Worker(k)
		go func(ev *kernel.Evaluator, scr *kernel.Scratch, part []int) {
			s.reconstructChunk(ev, scr, make([]float64, len(svs)), svs, coef, part)
			done <- struct{}{}
		}(ev, scr, targets[lo:hi])
	}
	for k := 0; k < w; k++ {
		<-done
	}
}

func (s *state) reconstructChunk(ev *kernel.Evaluator, scr *kernel.Scratch, buf []float64, svs []int, coef []float64, targets []int) {
	for _, i := range targets {
		ev.RowInto(scr, s.x.RowView(i), ev.Norm(i), svs, buf)
		var g float64
		for k := range svs {
			g += coef[k] * buf[k]
		}
		// g + y_i*p_i; classification's p_i = -1 keeps the historical
		// g - y_i bit-identically (adding -y equals subtracting y).
		s.gamma[i] = g + s.y[i]*s.pAt(i)
	}
}

func (s *state) unshrinkAll() {
	s.activeIdx = s.activeIdx[:len(s.active)]
	for i := range s.active {
		s.active[i] = true
		s.activeIdx[i] = i
	}
	s.rows.NewGeneration() // rows completed over the shrunk set lack the re-admitted entries
}

// result assembles the model and statistics.
func (s *state) result() *Result {
	var svIdx []int
	var sumG float64
	nI0 := 0
	for i, a := range s.alpha {
		if a > 0 {
			svIdx = append(svIdx, i)
		}
		if solver.Classify(s.y[i], a, s.boxAt(i)) == solver.I0 {
			sumG += s.gamma[i]
			nI0++
		}
	}
	beta := solver.Threshold(sumG, nI0, s.betaUp, s.betaLow)
	evals := s.ev.Evals() + s.pool.Evals()
	hits, misses, evictions := s.rows.Stats()
	if s.trace != nil {
		s.trace.Iterations = s.iter
		s.trace.Converged = s.converged
		s.trace.SVCount = len(svIdx)
	}
	res := &Result{
		Alpha: append([]float64(nil), s.alpha...),
		Beta:  beta,
		Stats: solver.Stats{
			Iterations:      s.iter,
			KernelEvals:     evals,
			CacheHits:       hits,
			CacheMisses:     misses,
			CacheEvictions:  evictions,
			Reconstructions: s.reconstructions,
			ShrinkEvents:    s.shrinkEvents,
			Converged:       s.converged,
			Objective:       solver.DualObjectiveQP(s.alpha, s.y, s.gamma, s.cfg.LinearTerm),
		},
		Trace: s.trace,
	}
	if s.cfg.skipModel {
		return res
	}
	sv, err := s.x.SelectRows(svIdx)
	if err != nil {
		panic("smo: internal: " + err.Error()) // indices come from range loop
	}
	coef := make([]float64, len(svIdx))
	for k, i := range svIdx {
		coef[k] = s.alpha[i] * s.y[i]
	}
	res.Model = &model.Model{
		Kernel:       s.cfg.Kernel,
		C:            s.cfg.C,
		SV:           sv,
		Coef:         coef,
		Beta:         beta,
		TrainSamples: len(s.alpha),
		Iterations:   s.iter,
	}
	return res
}
