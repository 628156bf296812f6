package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/ckpt"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// tagRecon is the gradient-reconstruction ring's point-to-point tag
// (collectives manage their own).
const tagRecon = 3

// Config controls a distributed training run.
type Config struct {
	Kernel kernel.Params
	C      float64
	Eps    float64 // user-specified tolerance epsilon (Eq. 5)

	// Heuristic selects the Table II shrinking strategy; the zero value
	// is not valid — use Original for no shrinking.
	Heuristic Heuristic

	// SecondOrder switches working-set selection to libsvm's second-order
	// rule: i_up stays the worst up-side violator, but its partner
	// maximizes the analytic gain (gamma_up - gamma_j)^2 / eta_uj. Costs
	// one extra MINLOC-style Allreduce per iteration and no extra kernel
	// evaluations (K(x_up, .) values are shared between selection and the
	// gradient update). The paper evaluates the maximal-violating-pair
	// rule; this is the Keerthi et al. alternative, exposed for the
	// working-set-selection ablation.
	SecondOrder bool

	// Control carries the iteration cap, the warm start and the
	// checkpoint sink. Each rank takes its partition's slice of
	// InitialAlpha, clamps it to the box and rebuilds the gradients with a
	// ring pass. A checkpoint is a barrier plus a rank-order gather of
	// alpha/gamma/active at rank 0.
	solver.Control
	// CheckpointSeed is recorded in each snapshot for provenance.
	CheckpointSeed int64

	// RecordTrace makes rank 0 record a Trace for the perfmodel package.
	RecordTrace bool

	// Lambda, when positive, charges each rank's virtual clock
	// Lambda seconds per kernel evaluation, so RunTimed makespans can be
	// compared against the analytic performance model. The charge is the
	// paper's cacheless cost, 3+2|active| evaluations per iteration,
	// whatever the kernel-row cache answers, so modeled times do not
	// depend on CacheBytes.
	Lambda float64

	// CacheBytes is the total kernel-row cache budget, read by
	// solver.CacheBudget and split evenly across the ranks. Each rank
	// caches K(x_g, .) over its own block of samples for the pair samples
	// g, plus K(x_g, x_g) as one extra entry, so the budget is only a
	// ceiling: a rank never holds more than its block of the Gram matrix,
	// and rows are made only for samples that enter the working pair. The
	// pair step reads the self-kernels from the rows, and gradient
	// reconstruction reads every value its support vectors' rows hold, on
	// every ring step. The paper's solver has no cache (Section III-A2);
	// see DESIGN.md for why a per-rank one differs. Models, iterates and
	// message counts are the same at every budget, and so is the Lambda
	// charge.
	CacheBytes int64
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Eps <= 0 {
		out.Eps = 1e-3
	}
	if out.MaxIter <= 0 {
		out.MaxIter = 200_000_000
	}
	if out.Heuristic.Name == "" {
		out.Heuristic = Original
	}
	out.CacheBytes = solver.CacheBudget(out.CacheBytes)
	return out
}

// Stats reports what a training run did. All fields are identical on every
// rank except Trace, which only rank 0 fills when requested. FinalActive is
// the global active-set size at termination.
type Stats struct {
	solver.Stats
	Trace *trace.Trace
}

// pairHalf is one selected sample (x_up or x_low) together with the
// scalar state the alpha update needs.
type pairHalf struct {
	Row   sparse.Row
	Norm  float64
	Y     float64
	Alpha float64
	Gamma float64
}

// ByteSize implements mpi.Sized: index+value data and row metadata (the
// perfmodel's RowBytes) plus the four scalars.
func (h pairHalf) ByteSize() int { return 12*len(h.Row.Idx) + 16 + 32 }

// violator is one side of the working pair inside the selection
// reduction: its KKT value and global index, carrying the sample.
type violator = mpi.Carry[pairHalf]

// workingPair is the operand of the per-iteration selection Allreduce.
type workingPair struct {
	Up, Low violator
}

// ByteSize implements mpi.Sized: each side's ValLoc (16 bytes) plus its
// sample.
func (w workingPair) ByteSize() int { return w.Up.ByteSize() + w.Low.ByteSize() }

// combinePair picks each side with MINLOC/MAXLOC semantics (ties to the
// smaller index); the winner's sample travels with it.
func combinePair(dst, a, b *workingPair) {
	mpi.MinLocCarry(&dst.Up, &a.Up, &b.Up)
	mpi.MaxLocCarry(&dst.Low, &a.Low, &b.Low)
}

// addInts is the shrink check's active-count sum in AllreduceSlots' form.
func addInts(dst, a, b *int) { *dst = *a + *b }

// svBlock is a rank's contribution to the gradient-reconstruction ring and
// to final model assembly: the local rows with alpha > 0 and their
// coefficients alpha*y.
type svBlock struct {
	X     *sparse.Matrix
	Coef  []float64
	Norms []float64
}

// ByteSize implements mpi.Sized.
func (b *svBlock) ByteSize() int {
	if b == nil || b.X == nil {
		return 8
	}
	return b.X.ByteSize() + 8*len(b.Coef) + 8*len(b.Norms)
}

// Train runs the proposed distributed SVM algorithm on this rank's
// partition. Every rank of the communicator must call it with the same
// configuration. The returned model is assembled on rank 0 (nil on other
// ranks); Stats are identical everywhere.
func Train(c *mpi.Comm, pt *Partition, cfg Config) (*model.Model, *Stats, error) {
	cfg = cfg.withDefaults()
	if err := validateInputs(c, pt, cfg); err != nil {
		return nil, nil, err
	}
	s := newRankState(c, pt, cfg)
	if len(cfg.InitialAlpha) > 0 {
		if err := s.warmStart(); err != nil {
			return nil, nil, err
		}
	}
	if err := s.solve(); err != nil {
		return nil, nil, err
	}
	return s.finish()
}

func validateInputs(c *mpi.Comm, pt *Partition, cfg Config) error {
	if pt == nil {
		return errors.New("core: nil partition")
	}
	if pt.P != c.Size() || pt.Rank != c.Rank() {
		return fmt.Errorf("core: partition (rank %d of %d) does not match communicator (rank %d of %d)",
			pt.Rank, pt.P, c.Rank(), c.Size())
	}
	if cfg.C <= 0 {
		return fmt.Errorf("core: C must be positive, got %v", cfg.C)
	}
	if err := cfg.Kernel.Validate(); err != nil {
		return err
	}
	if err := cfg.Heuristic.Validate(); err != nil {
		return err
	}
	if len(pt.Y) != pt.Len() {
		return fmt.Errorf("core: partition has %d labels for %d rows", len(pt.Y), pt.Len())
	}
	for i, v := range pt.Y {
		if v != 1 && v != -1 {
			return fmt.Errorf("core: local label %d is %v, want +1 or -1", i, v)
		}
	}
	return nil
}

// rankState is the per-rank solver state.
type rankState struct {
	c   *mpi.Comm
	pt  *Partition
	cfg Config

	alpha, gamma []float64
	active       []bool
	globalActive int

	ev   *kernel.Evaluator // local block evaluator
	pool *kernel.RowPool   // one worker: fills rows without a goroutine

	// activeIdx lists the local active indices in ascending order: the
	// target list of every row batch (selection, gradient pass). Shrink
	// checks compact it inside gradientPass and reconstruct resets it, so
	// len(activeIdx) is the local active-set size. diag holds the local
	// kernel diagonal for second-order selection.
	diag      []float64
	activeIdx []int
	blockBuf  []float64 // reconstruction scratch, one entry per stale target

	// rows stores the pair rows K(x_g, x_i) over the local block, keyed by
	// the pair sample's global index g (cache.Rows). A cached row is one
	// entry wider and keeps K(x_g, x_g) last; gradient reconstruction
	// reads the rows of the support vectors it passes around the ring.
	rows *cache.Rows

	// isSV[g] is true when global sample g has alpha > 0. Every rank
	// computes the same pair step, so every rank keeps it for all N
	// samples without a message, and a reconstruction block from any
	// rank maps its rows to global indices through it.
	isSV []bool

	// up and low are the local worst violators over activeIdx, recorded
	// by the last gradient pass for the next selectPair. scanned is false
	// when alpha, gamma or the active set changed outside a gradient pass
	// and selectPair must scan: before the first selection (a warm start
	// runs before it) and after a reconstruction.
	up, low mpi.ValLoc
	scanned bool

	// pairSlots and partnerSlots hold this rank's buffers for the
	// selection Allreduce and the second-order one, countSlots for the
	// shrink check's active-count sum. A value they return stays valid
	// until the next call on the same slots.
	pairSlots    *mpi.Slots[workingPair]
	partnerSlots *mpi.Slots[violator]
	countSlots   *mpi.Slots[int]

	// beforeReduce, when set (tests), runs in selectPair once up and low
	// are current, before the reduction.
	beforeReduce func()

	iter            int64
	converged       bool
	shrinkEvents    int
	reconstructions int
	manualEvals     uint64 // kernel evals done via Params.Eval directly

	// shrinking thresholds (the paper's delta and delta_c)
	delta  int64
	deltaC int64

	// multi-reconstruction phase: 1 = converging to 20*eps, 2 = to 2*eps.
	phase int

	trace *trace.Trace
}

func newRankState(c *mpi.Comm, pt *Partition, cfg Config) *rankState {
	n := pt.Len()
	s := &rankState{
		c: c, pt: pt, cfg: cfg,
		alpha:        make([]float64, n),
		gamma:        make([]float64, n),
		active:       make([]bool, n),
		activeIdx:    make([]int, n),
		globalActive: pt.N,
		ev:           kernel.NewEvaluator(cfg.Kernel, pt.X),
		pairSlots:    mpi.NewSlots[workingPair](c),
		countSlots:   mpi.NewSlots[int](c),
		phase:        1,
	}
	for i := 0; i < n; i++ {
		s.gamma[i] = -pt.Y[i]
		s.active[i] = true
		s.activeIdx[i] = i
	}
	s.delta = cfg.Heuristic.InitialThreshold(pt.N)
	s.deltaC = s.delta
	s.pool = kernel.NewRowPool(s.ev, 1)
	s.rows = cache.NewRows(s.pool, cfg.CacheBytes/int64(pt.P), pt.N, n+1)
	s.isSV = make([]bool, pt.N)
	if cfg.SecondOrder {
		s.diag = make([]float64, n)
		s.ev.DiagInto(s.diag)
		s.partnerSlots = mpi.NewSlots[violator](c)
	}
	if cfg.RecordTrace && c.Rank() == 0 {
		s.trace = trace.New(cfg.Heuristic.Name, pt.N, 0, cfg.Eps)
		if cfg.SecondOrder {
			s.trace.WSS = "second-order"
		}
	}
	return s
}

// selectPair combines the local worst KKT violators globally with
// MINLOC/MAXLOC semantics (Algorithm 2, lines 21-22), so every rank learns
// beta_up, beta_low and the violators' global indices. The two reductions
// are fused into one Allreduce whose operand also carries each local
// winner's sample: the result delivers x_up and x_low to every rank,
// replacing the paper's hop through rank 0 and broadcast (lines 3-10).
// The local violators come from the last gradient pass; only after a
// cold start, reconstruction or warm start does selectPair scan for them.
// The pair is valid, and read-only, until the next selectPair.
func (s *rankState) selectPair() (*workingPair, error) {
	if !s.scanned {
		s.up, s.low = s.scanViolators()
		s.scanned = true
	}
	if s.beforeReduce != nil {
		s.beforeReduce()
	}
	op := s.pairSlots.Operand()
	s.setViolator(&op.Up, s.up)
	s.setViolator(&op.Low, s.low)
	return mpi.AllreduceSlots(s.c, s.pairSlots, combinePair)
}

// scanViolators returns the local worst up and low violators over the
// active set (Loc -1 for an empty side), ties to the smaller index.
func (s *rankState) scanViolators() (up, low mpi.ValLoc) {
	up = mpi.ValLoc{Val: math.Inf(1), Loc: -1}
	low = mpi.ValLoc{Val: math.Inf(-1), Loc: -1}
	for _, i := range s.activeIdx {
		s.observe(i, &up, &low)
	}
	return up, low
}

// observe folds local sample i into the running violators. Callers visit
// indices in ascending order, so MinLoc/MaxLoc's tie rule keeps the first.
func (s *rankState) observe(i int, up, low *mpi.ValLoc) {
	y, a, c := s.pt.Y[i], s.alpha[i], s.cfg.C
	v := mpi.ValLoc{Val: s.gamma[i], Loc: s.pt.Global(i)}
	if solver.InUp(y, a, c) {
		*up = mpi.MinLoc(*up, v)
	}
	if solver.InLow(y, a, c) {
		*low = mpi.MaxLoc(*low, v)
	}
}

// setViolator stores v in dst with the local sample behind it attached;
// an empty side (Loc -1) carries none.
func (s *rankState) setViolator(dst *violator, v mpi.ValLoc) {
	dst.ValLoc = v
	dst.Data = pairHalf{}
	if l, ok := s.pt.Local(v.Loc); ok {
		dst.Data = pairHalf{Row: s.pt.X.RowView(l), Norm: s.ev.Norm(l), Y: s.pt.Y[l], Alpha: s.alpha[l], Gamma: s.gamma[l]}
	}
}

// firstSyncFactor scales eps for the first synchronization in
// multi-reconstruction mode: Converged() doubles the half-band, so phase 1
// ends at the paper's beta_up + 20*eps >= beta_low, "close enough" to the
// 2*eps solution that false eliminations are repaired before it.
const firstSyncFactor = 10

// currentEps returns the convergence half-band for the current phase:
// Algorithm 5 first synchronizes at 20*eps (phase 1), then converges to
// the final 2*eps band.
func (s *rankState) currentEps() float64 {
	if s.cfg.Heuristic.Recon == ReconMulti && s.phase == 1 {
		return firstSyncFactor * s.cfg.Eps
	}
	return s.cfg.Eps
}

func (s *rankState) solve() error {
	h := s.cfg.Heuristic
	shrinkingEnabled := h.Shrinks()
	for {
		pair, err := s.selectPair()
		if err != nil {
			return err
		}
		// The first-order betas drive convergence and shrinking even when
		// second-order selection replaces the low side below.
		betaUp, betaLow := pair.Up.Val, pair.Low.Val
		if solver.Converged(betaUp, betaLow, s.currentEps()) {
			if h.Recon == ReconMulti && s.phase == 1 {
				// First synchronization point at 20*eps: re-admit the
				// eliminated samples while still far from the solution.
				if s.globalActive < s.pt.N {
					if err := s.reconstruct(); err != nil {
						return err
					}
				}
				// Algorithm 5 keeps shrinking after the synchronization
				// ("do not update delta_c" to infinity, unlike Algorithm
				// 4); restart the countdown at the initial threshold so
				// the near-converged gradients are culled promptly — the
				// behaviour the paper describes for real-sim and forest,
				// where under 10% of samples stay active after the first
				// gradient reconstruction.
				s.deltaC = s.delta
				s.phase = 2
				continue
			}
			if s.globalActive < s.pt.N {
				// Converged on the shrunk problem only; rebuild the
				// gradients of eliminated samples and re-check.
				if err := s.reconstruct(); err != nil {
					return err
				}
				if h.Recon == ReconSingle {
					// Algorithm 4 line 32: delta_c <- infinity; never
					// shrink again, so the final solution is exact.
					shrinkingEnabled = false
				} else {
					s.deltaC = s.delta
				}
				continue
			}
			s.converged = true
			return nil
		}
		if s.iter >= s.cfg.MaxIter {
			return nil
		}
		s.iter++

		// Look both pair rows up (up, then low, the order the cache's
		// counters and LRU see) before the step, which reads their
		// self-kernels. In second-order mode selection reads the up row.
		upV, lowV := &pair.Up, &pair.Low
		up, low := &upV.Data, &lowV.Data
		var rowUp, rowLow []float64
		if s.cfg.SecondOrder {
			rowUp = s.rows.Row(0, upV.Loc, up.Row, up.Norm, s.activeIdx)
			if j, err := s.selectSecondOrder(upV, rowUp); err != nil {
				return err
			} else if j.Loc >= 0 {
				lowV, low = j, &j.Data
			}
			rowLow = s.rows.Row(1, lowV.Loc, low.Row, low.Norm, s.activeIdx)
		} else {
			rowUp, rowLow = s.rows.Pair(upV.Loc, lowV.Loc, up.Row, low.Row, up.Norm, low.Norm, s.activeIdx)
		}
		// All ranks compute the identical analytic step (Eq. 6/7).
		kUU, kLL := s.selfKernel(up, rowUp), s.selfKernel(low, rowLow)
		kUL := s.cfg.Kernel.Eval(up.Row, low.Row, up.Norm, low.Norm)
		s.manualEvals++
		st := solver.OptimizePair(up.Gamma, low.Gamma, up.Y, low.Y,
			up.Alpha, low.Alpha, kUU, kLL, kUL, s.cfg.C)
		s.isSV[upV.Loc], s.isSV[lowV.Loc] = st.NewAlphaUp > 0, st.NewAlphaLow > 0

		shrinkNow := false
		if shrinkingEnabled {
			s.deltaC--
			if s.deltaC <= 0 {
				shrinkNow = true
			}
		}
		s.gradientPass(st, upV, lowV, rowUp, rowLow, betaUp, betaLow, shrinkNow)

		if s.cfg.Lambda > 0 {
			s.c.Compute(s.cfg.Lambda * float64(3+2*len(s.activeIdx)))
		}

		if shrinkNow {
			s.shrinkEvents++
			prevActive := s.globalActive
			*s.countSlots.Operand() = len(s.activeIdx)
			sum, err := mpi.AllreduceSlots(s.c, s.countSlots, addInts)
			if err != nil {
				return err
			}
			ga := *sum
			s.globalActive = ga
			if ga == prevActive {
				// The check eliminated nothing — shrinking has not begun
				// yet (the band is still wide), so re-check at the
				// initial cadence rather than waiting a full working-set
				// length. Once elimination starts, the paper's
				// subsequent threshold below takes over.
				s.deltaC = s.delta
			} else {
				// The paper's subsequent threshold: the size of the
				// active working set, obtained with an MPI_Allreduce,
				// giving every surviving sample an opportunity to
				// stabilize before the next shrink step.
				s.deltaC = int64(max(ga, 1))
			}
			if s.trace != nil {
				s.trace.SetActive(s.iter, ga)
				s.trace.ShrinkChecks++
			}
		}

		// The condition depends only on cfg and the lockstep iteration
		// counter, so every rank enters the collective snapshot together.
		if s.cfg.Checkpoint != nil && s.cfg.CheckpointEvery > 0 && s.iter%s.cfg.CheckpointEvery == 0 {
			if err := s.saveCheckpoint(); err != nil {
				return err
			}
		}
	}
}

// selectSecondOrder picks the partner of i_up by maximal analytic gain
// among local low-side violators, then combines globally with a MAXLOC
// Allreduce that carries the winner's sample like selectPair does (Loc -1
// when no rank has a candidate). It reads kui, K(x_up, x_i) over the
// actives, which the gradient pass reuses, so the second-order rule costs
// no extra kernel evaluations. The partner is valid, and read-only, until
// the next selectSecondOrder.
func (s *rankState) selectSecondOrder(up *violator, kui []float64) (*violator, error) {
	kUU := s.selfKernel(&up.Data, kui)
	best := mpi.ValLoc{Val: math.Inf(-1), Loc: -1}
	for _, i := range s.activeIdx {
		if !solver.InLow(s.pt.Y[i], s.alpha[i], s.cfg.C) {
			continue
		}
		b := s.gamma[i] - up.Data.Gamma
		if b <= 0 {
			continue
		}
		eta := kUU + s.diag[i] - 2*kui[i]
		if eta <= solver.Tau {
			eta = solver.Tau
		}
		best = mpi.MaxLoc(best, mpi.ValLoc{Val: b * b / eta, Loc: s.pt.Global(i)})
	}
	s.setViolator(s.partnerSlots.Operand(), best)
	return mpi.AllreduceSlots(s.c, s.partnerSlots, mpi.MaxLocCarry[pairHalf])
}

// gradientPass applies the Eq. 2 gradient update to every local active
// sample, installs the new alphas on the owners of the selected pair, and
// optionally applies the Eq. 9 shrink condition (Algorithm 4 lines 12-24),
// compacting activeIdx to the survivors. On the way it records the local
// worst violators over the survivors for the next selectPair: the same
// ascending fold over the final gamma and alpha values that
// scanViolators makes, as Keerthi et al. keep b_up/b_low current during
// the update sweep. kui and kli are the pair rows, complete over the
// actives.
func (s *rankState) gradientPass(st solver.Step, up, low *violator, kui, kli []float64, betaUp, betaLow float64, shrinkNow bool) {
	c := s.cfg.C
	actives := s.activeIdx
	vUp := mpi.ValLoc{Val: math.Inf(1), Loc: -1}
	vLow := mpi.ValLoc{Val: math.Inf(-1), Loc: -1}
	kept := 0
	for _, i := range actives {
		s.gamma[i] += solver.GradientDelta(st.T, kui[i], kli[i])
		g := s.pt.Global(i)
		if g == up.Loc {
			s.alpha[i] = st.NewAlphaUp
		}
		if g == low.Loc {
			s.alpha[i] = st.NewAlphaLow
		}
		if shrinkNow {
			set := solver.Classify(s.pt.Y[i], s.alpha[i], c)
			if solver.Shrinkable(set, s.gamma[i], betaUp, betaLow) {
				s.active[i] = false
				continue
			}
		}
		actives[kept] = i
		kept++
		s.observe(i, &vUp, &vLow)
	}
	s.activeIdx = actives[:kept]
	s.up, s.low, s.scanned = vUp, vLow, true
}

// selfKernel returns K(x_g, x_g) for pair sample h, whose row is row. A
// cached row keeps it in its extra last entry, so it is evaluated once
// per admission of the row; a transient row has no such entry, and the
// value is evaluated on every call, as the cacheless solver does.
func (s *rankState) selfKernel(h *pairHalf, row []float64) float64 {
	n := s.pt.Len()
	if len(row) > n && !math.IsNaN(row[n]) {
		return row[n]
	}
	k := s.cfg.Kernel.Eval(h.Row, h.Row, h.Norm, h.Norm)
	s.manualEvals++
	if len(row) > n {
		row[n] = k
	}
	return k
}

// buildSVBlock collects the local samples with alpha > 0.
func (s *rankState) buildSVBlock() (*svBlock, error) {
	n := 0
	for _, a := range s.alpha {
		if a > 0 {
			n++
		}
	}
	idx := make([]int, 0, n)
	for i, a := range s.alpha {
		if a > 0 {
			idx = append(idx, i)
		}
	}
	x, err := s.pt.X.SelectRows(idx)
	if err != nil {
		return nil, err
	}
	b := &svBlock{X: x, Coef: make([]float64, len(idx)), Norms: make([]float64, len(idx))}
	for k, i := range idx {
		b.Coef[k] = s.alpha[i] * s.pt.Y[i]
		b.Norms[k] = s.ev.Norm(i)
	}
	return b, nil
}

// reconstruct is Algorithm 3: rebuild gamma for previously eliminated
// samples using every sample with alpha > 0, obtained via a ring exchange
// of CSR blocks (implemented, as in the paper, with Isend/Irecv/Waitall),
// then re-admit all samples.
func (s *rankState) reconstruct() error {
	s.reconstructions++

	// Targets: local samples whose gradient is stale.
	var targets []int
	for i, a := range s.active {
		if !a {
			targets = append(targets, i)
		}
	}
	// Start gamma from scratch for targets: gamma_i = -y_i + sum contributions.
	for _, i := range targets {
		s.gamma[i] = -s.pt.Y[i]
	}

	block, err := s.buildSVBlock()
	if err != nil {
		return err
	}
	totalShrunk, err := mpi.Allreduce(s.c, len(targets), mpi.SumInt)
	if err != nil {
		return err
	}
	totalSVs, err := mpi.Allreduce(s.c, block.X.Rows(), mpi.SumInt)
	if err != nil {
		return err
	}

	if err := s.ringPass(block, targets); err != nil {
		return err
	}

	// Re-admit every sample (the re-introduced samples participate in the
	// next beta reduction, Algorithm 3 lines 7-12).
	s.activeIdx = s.activeIdx[:len(s.active)]
	for i := range s.active {
		s.active[i] = true
		s.activeIdx[i] = i
	}
	s.globalActive = s.pt.N
	s.scanned = false
	s.rows.NewGeneration() // rows completed over the shrunk set lack the re-admitted entries

	if s.trace != nil {
		s.trace.AddRecon(s.iter, totalShrunk, totalSVs)
	}
	return nil
}

// ringPass circulates every rank's SV block once around the ring
// (Isend/Irecv/Waitall, as in the paper's Algorithm 3), accumulating each
// block's contributions into the targets' gradients. Shared by gradient
// reconstruction and checkpoint warm start.
func (s *rankState) ringPass(block *svBlock, targets []int) error {
	p, rank := s.pt.P, s.c.Rank()
	cur := block
	right := (rank + 1) % p
	left := (rank - 1 + p) % p
	for step := 0; step < p; step++ {
		// The block held at step k left rank rank-k.
		if err := s.applyBlock(cur, (rank-step+p)%p, targets); err != nil {
			return err
		}
		if s.cfg.Lambda > 0 {
			s.c.Compute(s.cfg.Lambda * float64(len(targets)*cur.X.Rows()))
		}
		if step == p-1 {
			break
		}
		sreq := s.c.Isend(right, tagRecon, cur)
		rreq := s.c.Irecv(left, tagRecon)
		if err := mpi.Waitall(sreq, rreq); err != nil {
			return err
		}
		next, ok := rreq.Data().(*svBlock)
		if !ok {
			return fmt.Errorf("core: rank %d: ring payload is %T", rank, rreq.Data())
		}
		cur = next
	}
	return nil
}

// warmStart installs the partition's slice of Config.InitialAlpha and
// rebuilds every local gradient with one ring pass, the same exchange
// gradient reconstruction uses: gamma_i = -y_i + sum_j alpha_j*y_j*K_ij
// over the global support set. Feasibility (box locally, the equality
// constraint globally via Allreduce) is checked first so a corrupt or
// foreign alpha vector fails loudly instead of poisoning the run.
func (s *rankState) warmStart() error {
	a := s.cfg.InitialAlpha
	if len(a) != s.pt.N {
		return fmt.Errorf("core: initial alpha holds %d entries for %d samples", len(a), s.pt.N)
	}
	c := s.cfg.C
	var sum, mass float64
	for i := 0; i < s.pt.Len(); i++ {
		v := a[s.pt.Lo+i]
		if math.IsNaN(v) || v < 0 || v > c*(1+1e-9) {
			return fmt.Errorf("core: initial alpha[%d] = %v outside [0, %v]", s.pt.Lo+i, v, c)
		}
		s.alpha[i] = math.Min(v, c)
		sum += s.alpha[i] * s.pt.Y[i]
		mass += s.alpha[i]
	}
	// Every rank checks its own slice; the membership is seeded for all
	// N samples, which the owners' clamped alphas agree with.
	for g, v := range a {
		s.isSV[g] = v > 0
	}
	gsum, err := mpi.Allreduce(s.c, sum, mpi.SumF64)
	if err != nil {
		return err
	}
	gmass, err := mpi.Allreduce(s.c, mass, mpi.SumF64)
	if err != nil {
		return err
	}
	if math.Abs(gsum) > 1e-6*(1+gmass) {
		return fmt.Errorf("core: initial alpha violates sum alpha_i*y_i = 0 (residual %.3g)", gsum)
	}

	for i := range s.gamma {
		s.gamma[i] = -s.pt.Y[i]
	}
	block, err := s.buildSVBlock()
	if err != nil {
		return err
	}
	// Every sample is still active before the first iteration, so the
	// active list is the full target list.
	return s.ringPass(block, s.activeIdx)
}

// saveCheckpoint takes a coordinated snapshot: a barrier pins every rank at
// the same iteration boundary, then alpha/gamma/active are gathered at rank
// 0 in rank order — which, by the block partition, is exactly dataset row
// order — and persisted as one crash-consistent generation.
func (s *rankState) saveCheckpoint() error {
	if err := mpi.Barrier(s.c); err != nil {
		return err
	}
	// Copies, not views: the gathered slices are read on rank 0 while the
	// owners keep mutating their originals next iteration.
	alphas, err := mpi.Gather(s.c, append([]float64(nil), s.alpha...), 0)
	if err != nil {
		return err
	}
	gammas, err := mpi.Gather(s.c, append([]float64(nil), s.gamma...), 0)
	if err != nil {
		return err
	}
	actives, err := mpi.Gather(s.c, append([]bool(nil), s.active...), 0)
	if err != nil {
		return err
	}
	if s.c.Rank() != 0 {
		return nil
	}
	st := &ckpt.State{
		Solver:          ckpt.SolverCore,
		Iteration:       s.iter,
		Seed:            s.cfg.CheckpointSeed,
		Fingerprint:     s.cfg.CheckpointFingerprint,
		N:               s.pt.N,
		Alpha:           make([]float64, 0, s.pt.N),
		Gamma:           make([]float64, 0, s.pt.N),
		Active:          make([]bool, 0, s.pt.N),
		ShrinkCountdown: s.deltaC,
		Phase:           int32(s.phase),
		ShrinkEvents:    int32(s.shrinkEvents),
		Reconstructions: int32(s.reconstructions),
	}
	for r := range alphas {
		st.Alpha = append(st.Alpha, alphas[r]...)
		st.Gamma = append(st.Gamma, gammas[r]...)
		st.Active = append(st.Active, actives[r]...)
	}
	return s.cfg.Checkpoint.Save(st)
}

// applyBlock accumulates one ring block's contributions into the stale
// gradients: gamma_i += alpha_j*y_j*Phi(x_j, x_i). The block is rank
// from's samples with alpha > 0 in ascending order, so isSV names the
// global index g of each row. When this rank caches row g, K(x_g, x_i) is
// read from it, and only the targets it lacks are computed, in one row
// batch, and kept in the row; otherwise the SV row is one batched row
// evaluation over the targets. The accumulation order, and so every bit
// of gamma, is the same either way.
func (s *rankState) applyBlock(b *svBlock, from int, targets []int) error {
	if len(targets) == 0 {
		return nil
	}
	if len(s.blockBuf) < len(targets) {
		s.blockBuf = make([]float64, len(targets))
	}
	buf := s.blockBuf[:len(targets)]
	lo, hi := BlockRange(s.pt.N, s.pt.P, from)
	if svs := s.countSVs(lo, hi); svs != b.X.Rows() {
		return fmt.Errorf("core: rank %d: the reconstruction block from rank %d holds %d rows for its %d samples with alpha > 0",
			s.c.Rank(), from, b.X.Rows(), svs)
	}
	g := lo
	for j := 0; j < b.X.Rows(); j++ {
		for !s.isSV[g] {
			g++
		}
		coef, pivot, norm := b.Coef[j], b.X.RowView(j), b.Norms[j]
		row, ok := s.rows.Peek(g)
		g++
		if !ok {
			s.pool.RowInto(pivot, norm, targets, buf)
			for k, i := range targets {
				s.gamma[i] += coef * buf[k]
			}
			continue
		}
		s.rows.Complete(row, pivot, norm, targets)
		for _, i := range targets {
			s.gamma[i] += coef * row[i]
		}
	}
	return nil
}

// countSVs counts the global samples in [lo, hi) with alpha > 0.
func (s *rankState) countSVs(lo, hi int) int {
	n := 0
	for _, sv := range s.isSV[lo:hi] {
		if sv {
			n++
		}
	}
	return n
}

// finish computes the threshold, assembles the model on rank 0, and
// gathers global statistics.
func (s *rankState) finish() (*model.Model, *Stats, error) {
	// beta: mean gradient over the free set I0 (Allreduce of sum and count).
	var sumG float64
	var nI0 int
	var localSV int
	var localObj float64
	for i, a := range s.alpha {
		if solver.Classify(s.pt.Y[i], a, s.cfg.C) == solver.I0 {
			sumG += s.gamma[i]
			nI0++
		}
		if a > 0 {
			localSV++
		}
		localObj += a * (1 - s.pt.Y[i]*s.gamma[i])
	}
	sumG, err := mpi.Allreduce(s.c, sumG, mpi.SumF64)
	if err != nil {
		return nil, nil, err
	}
	nI0, err = mpi.Allreduce(s.c, nI0, mpi.SumInt)
	if err != nil {
		return nil, nil, err
	}
	pair, err := s.selectPair()
	if err != nil {
		return nil, nil, err
	}
	beta := solver.Threshold(sumG, nI0, pair.Up.Val, pair.Low.Val)

	svTotal, err := mpi.Allreduce(s.c, localSV, mpi.SumInt)
	if err != nil {
		return nil, nil, err
	}
	hits, misses, evictions := s.rows.Stats()
	total, err := mpi.Allreduce(s.c, counters{s.ev.Evals() + s.pool.Evals() + s.manualEvals, hits, misses, evictions}, addCounters)
	if err != nil {
		return nil, nil, err
	}
	obj, err := mpi.Allreduce(s.c, localObj, mpi.SumF64)
	if err != nil {
		return nil, nil, err
	}

	st := &Stats{Stats: solver.Stats{
		Iterations:      s.iter,
		Converged:       s.converged,
		ShrinkEvents:    s.shrinkEvents,
		Reconstructions: s.reconstructions,
		FinalActive:     s.globalActive,
		KernelEvals:     total.Evals,
		Objective:       obj / 2,
		CacheHits:       total.Hits,
		CacheMisses:     total.Misses,
		CacheEvictions:  total.Evictions,
	}}
	if s.trace != nil {
		s.trace.Iterations = s.iter
		s.trace.Converged = s.converged
		s.trace.SVCount = svTotal
		s.trace.AvgNNZ = avgNNZGlobal(s)
		st.Trace = s.trace
	}

	// Model assembly: gather SV blocks at rank 0 in rank order.
	block, err := s.buildSVBlock()
	if err != nil {
		return nil, nil, err
	}
	blocks, err := mpi.Gather(s.c, block, 0)
	if err != nil {
		return nil, nil, err
	}
	if s.c.Rank() != 0 {
		return nil, st, nil
	}
	sv := blocks[0].X
	coef := append([]float64(nil), blocks[0].Coef...)
	for _, b := range blocks[1:] {
		sv = sparse.Append(sv, b.X)
		coef = append(coef, b.Coef...)
	}
	m := &model.Model{
		Kernel:       s.cfg.Kernel,
		C:            s.cfg.C,
		SV:           sv,
		Coef:         coef,
		Beta:         beta,
		TrainSamples: s.pt.N,
		Iterations:   s.iter,
	}
	return m, st, nil
}

// counters are the per-rank counts finish sums in one Allreduce: kernel
// evaluations and the kernel-row cache's traffic.
type counters struct{ Evals, Hits, Misses, Evictions uint64 }

// ByteSize implements mpi.Sized.
func (counters) ByteSize() int { return 32 }

func addCounters(a, b counters) counters {
	return counters{a.Evals + b.Evals, a.Hits + b.Hits, a.Misses + b.Misses, a.Evictions + b.Evictions}
}

// avgNNZGlobal is computed locally on rank 0 from its block — blocks are
// statistically identical, and the value only labels the trace.
func avgNNZGlobal(s *rankState) float64 {
	return s.pt.X.AvgRowNNZ()
}
