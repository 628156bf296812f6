package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/oracle"
	"repro/internal/perfmodel"
	"repro/internal/smo"
	"repro/internal/solver"
	"repro/internal/sparse"

	_ "repro/internal/engines"
)

// eps is the termination tolerance of every training call.
const eps = 1e-3

// trained is what one timed training call left behind.
type trained struct {
	model     *model.Model
	alpha     []float64
	objective float64
	iters     int64
	evals     uint64
}

// trainer keeps the outputs of a training workload's timed calls: round
// 0's models (verified by the oracle) and counters (which repeat exactly
// for a seed), and every round's objective (checked against round 0's).
type trainer struct {
	d       *trainingSet
	x       *sparse.Matrix // the current round's order of the training rows
	y       []float64
	x0      *sparse.Matrix // round 0's order, which its models are verified on
	y0      []float64
	s       map[string]*samples
	first   map[string]trained
	objs    map[string][]float64
	verifyT time.Duration
	reports map[string]float64 // oracle dual objective per op
}

func newTrainer(d *trainingSet) *trainer {
	return &trainer{d: d, x: d.x, y: d.y, x0: d.x, y0: d.y, first: map[string]trained{},
		objs: map[string][]float64{}, reports: map[string]float64{}}
}

// roundSeed derives round k's seed from the run seed.
func roundSeed(seed int64, k int) int64 { return seed*1_000_003 + int64(k) }

// permute puts the training rows in round k's order. The order of the rows
// is an input the solvers are sensitive to: on paper-codrna one
// permutation of the same 595 rows took 35% more iterations than another.
// A fresh permutation every round makes a run's time an average over
// hundreds of orders, so it measures the solver, not the luck of one
// order, while the seed still decides every order.
func (t *trainer) permute(seed int64, k int) error {
	perm := rand.New(rand.NewSource(roundSeed(seed, k))).Perm(t.d.x.Rows())
	x, err := t.d.x.SelectRows(perm)
	if err != nil {
		return err
	}
	y := make([]float64, len(perm))
	for i, j := range perm {
		y[i] = t.d.y[j]
	}
	t.x, t.y = x, y
	if k == 0 {
		t.x0, t.y0 = x, y
	}
	return nil
}

func (t *trainer) keep(op string, tr trained) {
	if _, ok := t.first[op]; !ok {
		t.first[op] = tr
	}
	t.objs[op] = append(t.objs[op], tr.objective)
}

// engine trains through the solver registry, the path svmtrain takes.
func (t *trainer) engine(r *runCtx, op, name string, x sparse.RowMatrix, y []float64, kp kernel.Params, opts solver.Options) error {
	opts.C, opts.Eps = t.d.c, eps
	res, err := solver.Train(r.ctx, name, solver.Problem{X: x, Y: y, Kernel: kp}, opts)
	if err != nil {
		return err
	}
	t.keep(op, trained{res.Model, res.Alpha, res.Objective, res.Iterations, res.KernelEvals})
	return nil
}

// verifyKernel oracle-verifies round 0's model of each op, then checks
// that the ops' verified optima agree, and that every round of each op
// reached the objective of its round 0, within the oracle's gap tolerance:
// the engines, and every order of the rows, solve one QP.
func (t *trainer) verifyKernel(r *runCtx, ops ...string) {
	tol := oracle.GapTolerance(t.x0.Rows(), t.d.c, eps)
	p := oracle.Problem{X: t.x0, Y: t.y0, Kernel: t.d.kp, C: t.d.c, Eps: eps}
	for _, op := range ops {
		id := r.tr.begin("oracle.verify", 0)
		start := time.Now()
		rep, err := p.VerifyModel(t.first[op].model)
		t.verifyT += time.Since(start)
		r.tr.end(id)
		if err == nil {
			err = rep.Check()
		}
		r.verify(wrapf(err, "%s: oracle", op))
		if err == nil {
			t.reports[op] = rep.DualObjective
			r.layer["oracle.gap_ratio."+engineOf(op)] = max(r.layer["oracle.gap_ratio."+engineOf(op)], rep.DualityGap/tol)
		}
	}
	ref := t.reports[ops[0]]
	for _, op := range ops {
		if got, ok := t.reports[op]; ok {
			r.verify(within(got, ref, tol, "%s vs %s oracle dual objective", op, ops[0]))
		}
		for k, obj := range t.objs[op] {
			r.verify(within(obj, t.objs[op][0], tol, "%s round %d objective vs round 0", op, k))
		}
	}
}

// engineOf maps an op to the engine family its oracle gap is reported under.
func engineOf(op string) string {
	switch op {
	case "core_p1", "core_p2":
		return "core"
	case "linear_ooc", "linear_inmem":
		return "linear"
	}
	return op
}

func within(got, want, tol float64, format string, args ...any) error {
	if math.Abs(got-want) <= tol {
		return nil
	}
	return fmt.Errorf(format+": %.9g vs %.9g differ by more than %.3g", append(args, got, want, tol)...)
}

func wrapf(err error, format string, args ...any) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf(format+": %w", append(args, err)...)
}

// checkAccuracy records the held-out accuracy of m as accuracy_pct.
func (t *trainer) checkAccuracy(r *runCtx, m *model.Model) {
	acc, err := t.d.accuracy(m)
	r.verify(err)
	r.e2e["accuracy_pct"] = value{Value: acc}
}

// reportTimes fills time_ms and ref_ms with the speed-adjusted times of the
// headline and reference ops, and the trace overhead of the headline op.
func (t *trainer) reportTimes(r *runCtx, headline, ref string) {
	r.setTime("time_ms", t.s[headline].raw, r.speed, r.computeWeight)
	r.setTime("ref_ms", t.s[ref].raw, r.speed, r.computeWeight)
	r.layer["trace.overhead_pct"] = overheadPct(t.s[headline])
	r.layer["oracle.verify_s"] = t.verifyT.Seconds()
}

func (t *trainer) rawMS(op string) float64 { return median(t.s[op].raw) }

// smoCounters trains once more directly through smo.Train with the smo
// engine's configuration, because the registry result does not carry the
// cache and shrinking counters, and fills the cache and smo layers.
func (t *trainer) smoCounters(r *runCtx, cacheBytes int64) error {
	res, err := smo.Train(t.x0, t.y0, smo.Config{
		Kernel: t.d.kp, C: t.d.c, Eps: eps, Workers: 2, CacheBytes: cacheBytes, Shrinking: true,
	})
	if err != nil {
		return err
	}
	r.layer["cache.hits"] = float64(res.CacheHits)
	r.layer["cache.misses"] = float64(res.CacheMisses)
	r.layer["cache.evictions"] = float64(res.CacheEvictions)
	r.layer["cache.hit_rate"] = 100 * float64(res.CacheHits) / float64(max(1, res.CacheHits+res.CacheMisses))
	r.layer["smo.shrink_events"] = float64(res.ShrinkEvents)
	r.layer["smo.reconstructions"] = float64(res.Reconstructions)
	return nil
}

// reportEngine fills an engine's time, and its round-0 iteration and
// kernel-evaluation counts; the compute time is evaluations times the
// probed cost of one, a computed figure, not a measured one.
func (t *trainer) reportEngine(r *runCtx, op string) {
	first := t.first[op]
	r.layer["kernel.evals."+op] = float64(first.evals)
	r.layer["kernel.compute_ms."+op] = float64(first.evals) * r.layer["kernel.ns_per_eval"] / 1e6
	switch op {
	case "smo", "smo2":
		r.layer[op+".ms"] = t.rawMS(op)
		r.layer[op+".iterations"] = float64(first.iters)
	case "core_p1", "core_p2":
		r.layer["core.iterations."+op[5:]] = float64(first.iters)
		r.layer["core."+op[5:]+"_ms"] = t.rawMS(op)
	}
}

// ---- paper-codrna ----

// codrnaScale gives 416 training rows: small enough for about 290 rounds
// in a 25 s run, and the same regime as the paper's full set (8 features
// per row, so a kernel evaluation is cheap and each iteration's
// collectives and selection dominate).
const codrnaScale = 0.007

type codrna struct {
	*trainer
	runs map[int]*coreRun // round 0's run per rank count
	cpu  []float64        // process CPU time over wall time, per p=2 call
	skew []float64        // slowest over fastest rank's core.Train, per p=2 call
}

// coreRun is one distributed training call's rank-level account.
type coreRun struct {
	stats    *core.Stats
	sends    int
	bytes    int64
	rankWall []time.Duration
}

func setupCodrna(r *runCtx) (instance, error) {
	d, err := loadData(r, "codrna", codrnaScale*r.cfg.scale, 0)
	if err != nil {
		return nil, err
	}
	return &codrna{trainer: newTrainer(d), runs: map[int]*coreRun{}}, nil
}

// trainCore runs the distributed solver on p ranks inside the benchmark's
// own mpi.Run, the same steps as core.TrainParallel, so each rank's
// traffic counters and core.Train wall time can be read.
func (w *codrna) trainCore(r *runCtx, x *sparse.Matrix, y []float64, p, parent int, rec bool) (*model.Model, *coreRun, error) {
	cfg := core.Config{Kernel: w.d.kp, C: w.d.c, Eps: eps, Heuristic: core.Multi5pc, RecordTrace: rec}
	run := &coreRun{rankWall: make([]time.Duration, p)}
	models := make([]*model.Model, p)
	stats := make([]*core.Stats, p)
	sends := make([]int, p)
	bytes := make([]int64, p)
	err := mpi.Run(p, func(c *mpi.Comm) error {
		id := r.tr.begin("core.partition", parent)
		pt, err := core.NewPartition(x, y, p, c.Rank())
		r.tr.end(id)
		if err != nil {
			return err
		}
		id = r.tr.begin("core.train", parent)
		t := time.Now()
		m, st, err := core.Train(c, pt, cfg)
		run.rankWall[c.Rank()] = time.Since(t)
		r.tr.end(id)
		models[c.Rank()], stats[c.Rank()] = m, st
		sends[c.Rank()], bytes[c.Rank()] = c.Sends(), c.SentBytes()
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	run.stats = stats[0]
	for q := range sends {
		run.sends += sends[q]
		run.bytes += bytes[q]
	}
	return models[0], run, nil
}

func (w *codrna) coreOp(r *runCtx, p int) timedOp {
	name := fmt.Sprintf("core_p%d", p)
	return timedOp{name, func(parent int) error {
		wall, cpu := time.Now(), cpuTime()
		m, run, err := w.trainCore(r, w.x, w.y, p, parent, false)
		if err != nil {
			return err
		}
		if p == 2 {
			w.cpu = append(w.cpu, float64(cpuTime()-cpu)/float64(time.Since(wall)))
			w.skew = append(w.skew, float64(max(run.rankWall[0], run.rankWall[1]))/float64(max(1, min(run.rankWall[0], run.rankWall[1]))))
		}
		if _, ok := w.runs[p]; !ok {
			w.runs[p] = run
		}
		w.keep(name, trained{m, nil, run.stats.Objective, run.stats.Iterations, run.stats.KernelEvals})
		return nil
	}}
}

// measure times core at p=2 and the smo baseline every round, and in the
// traced run core at p=1 too, for the scaling and perfmodel numbers.
func (w *codrna) measure(r *runCtx, budget time.Duration) error {
	ops := []timedOp{
		w.coreOp(r, 2),
		{"smo", func(int) error { return w.engine(r, "smo", "smo", w.x, w.y, w.d.kp, solver.Options{Workers: 2}) }},
	}
	if r.cfg.trace {
		ops = append(ops, w.coreOp(r, 1))
	}
	var err error
	w.s, err = r.rounds(budget, ops, func(k int) error { return w.permute(r.cfg.seed, k) })
	return err
}

func (w *codrna) verify(r *runCtx) {
	ops := []string{"core_p2", "smo"}
	if r.cfg.trace {
		ops = append(ops, "core_p1")
	}
	w.verifyKernel(r, ops...)
	w.checkAccuracy(r, w.first["core_p2"].model)
}

func (w *codrna) report(r *runCtx) {
	w.reportTimes(r, "core_p2", "smo")
	if !r.cfg.trace {
		return
	}
	w.d.reportData(r)
	reportKernel(r, w.d.kp, w.d.x)
	w.d.reportModel(r, w.first["core_p2"].model)
	for _, op := range []string{"core_p1", "core_p2", "smo"} {
		w.reportEngine(r, op)
	}
	p2 := w.runs[2]
	st := p2.stats
	r.layer["mpi.msgs"] = float64(p2.sends)
	r.layer["mpi.bytes"] = float64(p2.bytes)
	r.layer["mpi.msgs_per_iter"] = float64(p2.sends) / float64(max(1, st.Iterations))
	r.layer["mpi.bytes_per_iter"] = float64(p2.bytes) / float64(max(1, st.Iterations))
	r.layer["core.speedup_vs_smo"] = w.rawMS("smo") / w.rawMS("core_p2")
	r.layer["core.scaling_p2"] = w.rawMS("core_p1") / w.rawMS("core_p2")
	r.layer["core.cpu_per_wall.p2"] = median(w.cpu)
	r.layer["core.rank_skew"] = median(w.skew)
	r.layer["core.shrink_events"] = float64(st.ShrinkEvents)
	r.layer["core.reconstructions"] = float64(st.Reconstructions)
	r.layer["core.final_active"] = float64(st.FinalActive)
	r.check(wrapf(w.smoCounters(r, 1<<30), "smo counters"))
	r.check(wrapf(w.reportPerfmodel(r), "perfmodel"))
}

// reportPerfmodel compares perfmodel's prediction for p = 1 and 2, from a
// recorded trace and a calibrated kernel cost, with the measured medians.
func (w *codrna) reportPerfmodel(r *runCtx) error {
	_, run, err := w.trainCore(r, w.x0, w.y0, 1, 0, true)
	if err != nil {
		return err
	}
	if run.stats.Trace == nil {
		return errors.New("core recorded no trace")
	}
	mach := perfmodel.Calibrate(w.d.kp, w.x0, 50*time.Millisecond)
	for _, p := range []int{1, 2} {
		b, err := perfmodel.Evaluate(run.stats.Trace, p, mach)
		if err != nil {
			return err
		}
		r.layer[fmt.Sprintf("perfmodel.ratio.p%d", p)] = b.Total() * 1e3 / w.rawMS(fmt.Sprintf("core_p%d", p))
	}
	return nil
}

func (w *codrna) close() {}

// ---- kernel-cache-mnist38 ----

const (
	// cacheScale gives 1500 training rows of 784 features, so a round of
	// smo and smo2 takes about 0.3 s and a 25 s run holds about 80.
	cacheScale = 0.025
	// cacheBytes holds about 130 full kernel rows of the 1500, so smo hits
	// about 63% of its row requests and evicts about 600 rows.
	cacheBytes = 3 << 19
)

type kernelCache struct{ *trainer }

func setupCache(r *runCtx) (instance, error) {
	d, err := loadData(r, "mnist38", cacheScale*r.cfg.scale, 0)
	if err != nil {
		return nil, err
	}
	return kernelCache{newTrainer(d)}, nil
}

func (w kernelCache) measure(r *runCtx, budget time.Duration) error {
	opts := solver.Options{Workers: 2, CacheBytes: cacheBytes}
	ops := []timedOp{
		{"smo", func(int) error { return w.engine(r, "smo", "smo", w.x, w.y, w.d.kp, opts) }},
		{"smo2", func(int) error { return w.engine(r, "smo2", "smo2", w.x, w.y, w.d.kp, opts) }},
	}
	var err error
	w.s, err = r.rounds(budget, ops, func(k int) error { return w.permute(r.cfg.seed, k) })
	return err
}

func (w kernelCache) verify(r *runCtx) {
	w.verifyKernel(r, "smo", "smo2")
	w.checkAccuracy(r, w.first["smo"].model)
}

func (w kernelCache) report(r *runCtx) {
	w.reportTimes(r, "smo", "smo2")
	if !r.cfg.trace {
		return
	}
	w.d.reportData(r)
	reportKernel(r, w.d.kp, w.d.x)
	w.d.reportModel(r, w.first["smo"].model)
	w.reportEngine(r, "smo")
	w.reportEngine(r, "smo2")
	r.check(wrapf(w.smoCounters(r, cacheBytes), "smo counters"))
}

func (kernelCache) close() {}

// ---- ooc-realsim ----

const (
	// oocScale gives 723 training rows (and 180 held out) of 20958 sparse
	// features: the spill still makes 16 blocks (their size follows the
	// budget), and one out-of-core training takes about 0.15 s, so a 25 s
	// run holds about 150.
	oocScale   = 0.0125
	oocHoldout = 0.2
)

type outOfCore struct {
	*trainer
	ooc      *sparse.OOCMatrix
	openTime time.Duration
	opts     solver.Options // the current round's, seeded per round
	counted  bool
	loads    uint64 // block-cache counters of round 0's out-of-core call
	hits     uint64
	evicts   uint64
}

func setupOOC(r *runCtx) (instance, error) {
	d, err := loadData(r, "realsim", oocScale*r.cfg.scale, oocHoldout)
	if err != nil {
		return nil, err
	}
	// A resident budget of a quarter of the in-memory matrix forces the
	// block LRU to churn, as when the data is four times the memory.
	id := r.tr.begin("dataset.open_ooc", r.setup)
	t := time.Now()
	ooc, y, err := dataset.OpenOOC(d.path, dataset.OOCOptions{SpillDir: r.dir, MemBudget: int64(d.x.ByteSize()) / 4})
	open := time.Since(t)
	r.tr.end(id)
	if err != nil {
		return nil, err
	}
	if len(y) != len(d.y) {
		ooc.Close()
		return nil, fmt.Errorf("out-of-core load has %d labels, in-memory %d", len(y), len(d.y))
	}
	return &outOfCore{trainer: newTrainer(d), ooc: ooc, openTime: open}, nil
}

// inmemRepeats is how many times a round runs the in-memory call. It takes
// about a hundredth of the out-of-core call, and its single samples vary by
// a factor of 1.7 within a run; at twice this dataset size and one sample a
// round, its time swung by 12% between runs.
const inmemRepeats = 8

// measure times dcd over the out-of-core matrix and over the in-memory
// one. The rows keep the file's order (it is what was spilled); each round
// seeds dcd's own epoch permutations afresh instead, so a run averages
// over many visiting orders of the spilled blocks.
func (w *outOfCore) measure(r *runCtx, budget time.Duration) error {
	lin := kernel.Params{Type: kernel.Linear}
	ops := []timedOp{{"linear_ooc", func(int) error {
		l0, h0, e0 := w.ooc.Stats()
		if err := w.engine(r, "linear_ooc", "linear", w.ooc, w.d.y, lin, w.opts); err != nil {
			return err
		}
		if !w.counted {
			l1, h1, e1 := w.ooc.Stats()
			w.loads, w.hits, w.evicts, w.counted = l1-l0, h1-h0, e1-e0, true
		}
		return nil
	}}}
	for i := 0; i < inmemRepeats; i++ {
		ops = append(ops, timedOp{"linear_inmem", func(int) error {
			return w.engine(r, "linear_inmem", "linear", w.d.x, w.d.y, lin, w.opts)
		}})
	}
	var err error
	w.s, err = r.rounds(budget, ops, func(k int) error {
		w.opts = solver.Options{Seed: roundSeed(r.cfg.seed, k)}
		return nil
	})
	return err
}

func (w *outOfCore) verify(r *runCtx) {
	p := oracle.LinearProblem{X: w.d.x, Y: w.d.y, C: w.d.c, Eps: eps, Loss: oracle.HingeLoss}
	tol := oracle.LinearGapTolerance(w.d.x.Rows(), w.d.c, eps)
	for _, op := range []string{"linear_ooc", "linear_inmem"} {
		id := r.tr.begin("oracle.verify", 0)
		start := time.Now()
		rep, err := p.VerifyLinearModel(w.first[op].model, w.first[op].alpha)
		w.verifyT += time.Since(start)
		r.tr.end(id)
		if err == nil {
			err = rep.Check()
			r.layer["oracle.gap_ratio.linear"] = max(r.layer["oracle.gap_ratio.linear"], rep.DualityGap/tol)
		}
		r.verify(wrapf(err, "%s: oracle", op))
		for k, obj := range w.objs[op] {
			r.verify(within(obj, w.objs[op][0], tol, "%s round %d objective vs round 0", op, k))
		}
	}
	// Training is deterministic in (data, seed), so streaming the rows from
	// the spill file must give the in-memory hyperplane bit for bit.
	r.verify(sameBits(w.first["linear_ooc"].model.W, w.first["linear_inmem"].model.W))
	w.checkAccuracy(r, w.first["linear_ooc"].model)
}

func sameBits(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("out-of-core w has %d weights, in-memory %d", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("out-of-core w[%d] = %v, in-memory %v", i, a[i], b[i])
		}
	}
	return nil
}

func (w *outOfCore) report(r *runCtx) {
	w.reportTimes(r, "linear_ooc", "linear_inmem")
	if !r.cfg.trace {
		return
	}
	w.d.reportData(r)
	r.layer["dataset.open_ooc_s"] = w.openTime.Seconds()
	reportKernel(r, kernel.Params{Type: kernel.Linear}, w.d.x)
	w.d.reportModel(r, w.first["linear_ooc"].model)
	r.layer["linear.iterations"] = float64(w.first["linear_ooc"].iters)
	r.layer["linear.ooc_ms"] = w.rawMS("linear_ooc")
	r.layer["linear.inmem_ms"] = w.rawMS("linear_inmem")
	r.layer["linear.ooc_slowdown"] = w.rawMS("linear_ooc") / w.rawMS("linear_inmem")
	r.layer["sparse.ooc.loads"] = float64(w.loads)
	r.layer["sparse.ooc.hits"] = float64(w.hits)
	r.layer["sparse.ooc.evictions"] = float64(w.evicts)
	r.layer["sparse.ooc.hit_rate"] = 100 * float64(w.hits) / float64(max(1, w.loads+w.hits))
	blockMiB := float64(w.ooc.ByteSize()) / float64(w.ooc.Blocks()) / (1 << 20)
	r.layer["sparse.ooc.read_mib"] = float64(w.loads) * blockMiB
}

func (w *outOfCore) close() { w.ooc.Close() }
