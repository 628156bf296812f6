// End-to-end crash-recovery proofs: for every training engine, a seeded run
// is killed mid-training (via mpi fault injection where the engine is
// distributed), restarted from its last on-disk checkpoint, and the resumed
// model is verified by the correctness oracle — eps-optimal, with a dual
// objective matching the uninterrupted run within the oracle's duality-gap
// bound. This is the acceptance criterion of the subsystem: recovery is
// proven, not assumed.
//
// The package is ckpt_test (external) because the engines under test import
// ckpt; an internal test package would create an import cycle.
package ckpt_test

import (
	"errors"
	"math"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dcsvm"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/oracle"
	"repro/internal/smo"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// recoveryProblem is the shared small-but-nontrivial training problem: big
// enough that the engines run hundreds of iterations (so a mid-training
// kill leaves real progress behind), small enough to keep the suite fast.
type recoveryProblem struct {
	x    *sparse.Matrix
	y    []float64
	kp   kernel.Params
	c    float64
	eps  float64
	prob oracle.Problem
}

func loadRecoveryProblem(t *testing.T, scale float64) *recoveryProblem {
	t.Helper()
	spec, err := dataset.Lookup("blobs")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.GenerateSeeded(spec, scale, 7)
	if err != nil {
		t.Fatal(err)
	}
	kp := kernel.FromSigma2(ds.Sigma2)
	rp := &recoveryProblem{x: ds.X, y: ds.Y, kp: kp, c: ds.C, eps: 1e-3}
	rp.prob = oracle.Problem{X: ds.X, Y: ds.Y, Kernel: kp, C: ds.C, Eps: rp.eps}
	return rp
}

// verifyAndCompare asserts the resumed model is eps-optimal and that its
// dual objective matches the uninterrupted run's within the oracle's
// duality-gap tolerance — the bound within which two eps-approximate
// optima of the same QP may legitimately differ.
func (rp *recoveryProblem) verifyAndCompare(t *testing.T, resumed *model.Model, baselineObj float64) {
	t.Helper()
	rep, err := rp.prob.VerifyModel(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("resumed model fails the oracle: %v\n%s", err, rep)
	}
	tol := oracle.GapTolerance(rp.x.Rows(), rp.c, rp.eps)
	if diff := math.Abs(rep.DualObjective - baselineObj); diff > tol {
		t.Fatalf("resumed objective %.6f differs from uninterrupted %.6f by %.3g (tolerance %.3g)",
			rep.DualObjective, baselineObj, diff, tol)
	}
}

func (rp *recoveryProblem) baselineObjective(t *testing.T, m *model.Model) float64 {
	t.Helper()
	rep, err := rp.prob.VerifyModel(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("uninterrupted model fails the oracle: %v\n%s", err, rep)
	}
	return rep.DualObjective
}

// TestCoreKillResume kills one rank of the distributed solver mid-training
// with the mpi fault plan, then resumes from the last checkpoint through
// the warm-start path. The crash point is derived from a healthy run with
// the same checkpoint cadence, so it stays mid-training however many
// messages an iteration takes.
func TestCoreKillResume(t *testing.T) {
	rp := loadRecoveryProblem(t, 0.1)
	cfg := core.Config{Kernel: rp.kp, C: rp.c, Eps: rp.eps, Heuristic: core.Multi5pc}
	const p = 2

	checkpointed := func(dir string) (core.Config, *ckpt.Writer) {
		w, err := ckpt.NewWriter(dir)
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.Checkpoint = w
		c.CheckpointEvery = 5
		c.CheckpointSeed = 7
		c.CheckpointFingerprint = ckpt.Fingerprint(rp.x, rp.y)
		return c, w
	}

	healthy, _ := checkpointed(t.TempDir())
	var m0 *model.Model
	var healthyOps int
	err := mpi.Run(p, func(c *mpi.Comm) error {
		pt, err := core.NewPartition(rp.x, rp.y, p, c.Rank())
		if err != nil {
			return err
		}
		m, _, err := core.Train(c, pt, healthy)
		switch c.Rank() {
		case 0:
			m0 = m
		case 1:
			// The fault plan counts sends plus receives. At p=2 rank 1
			// receives once per send in every exchange except the
			// Gathers to rank 0, so twice its sends is its op count to
			// within a few operations.
			healthyOps = 2 * c.Sends()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	base := rp.baselineObjective(t, m0)

	dir := t.TempDir()
	killed, w := checkpointed(dir)
	crashAt := int64(healthyOps * 6 / 10)
	_, _, _, err = core.TrainParallelOpts(rp.x, rp.y, p, killed,
		mpi.Options{Faults: mpi.FaultPlan{CrashRank: 1, CrashAtOp: crashAt}})
	if err == nil {
		t.Fatalf("run with an injected crash at op %d of %d reported success", crashAt, healthyOps)
	}
	if !errors.Is(err, mpi.ErrInjectedCrash) && !errors.Is(err, mpi.ErrAborted) {
		t.Fatalf("killed run error = %v, want injected crash / abort", err)
	}
	if w.Saves() == 0 {
		t.Fatalf("no checkpoint was written before the crash at op %d of %d", crashAt, healthyOps)
	}

	st, path, err := ckpt.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("resuming from %s: iteration %d, %d saves before crash", path, st.Iteration, w.Saves())
	if st.Solver != ckpt.SolverCore {
		t.Fatalf("checkpoint solver = %q, want %q", st.Solver, ckpt.SolverCore)
	}
	if err := st.Matches(rp.x, rp.y); err != nil {
		t.Fatal(err)
	}
	resumed := cfg
	resumed.InitialAlpha = st.Alpha
	m1, rst, _, err := core.TrainParallelOpts(rp.x, rp.y, p, resumed, mpi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rst.Converged {
		t.Fatal("resumed run did not converge")
	}
	rp.verifyAndCompare(t, m1, base)
}

// TestSMOCheckpointResume interrupts the shared-memory baseline (no ranks
// to kill, so the interruption is an iteration cap — the state left behind
// is the same as a process kill between iterations) and resumes from the
// newest on-disk generation.
func TestSMOCheckpointResume(t *testing.T) {
	rp := loadRecoveryProblem(t, 0.1)
	cfg := smo.Config{Kernel: rp.kp, C: rp.c, Eps: rp.eps, Workers: 2, CacheBytes: 1 << 20, Shrinking: true}

	res0, err := smo.Train(rp.x, rp.y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res0.Converged {
		t.Fatal("uninterrupted run did not converge")
	}
	base := rp.baselineObjective(t, res0.Model)
	if res0.Iterations < 40 {
		t.Fatalf("problem converges in %d iterations — too few to interrupt meaningfully", res0.Iterations)
	}

	dir := t.TempDir()
	w, err := ckpt.NewWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	killed := cfg
	killed.Checkpoint = w
	killed.CheckpointEvery = 10
	killed.CheckpointSeed = 7
	killed.MaxIter = res0.Iterations / 2
	resK, err := smo.Train(rp.x, rp.y, killed)
	if err != nil {
		t.Fatal(err)
	}
	if resK.Converged {
		t.Fatal("interrupted run converged — cap it earlier")
	}
	if w.Saves() == 0 {
		t.Fatal("no checkpoint written before the interruption")
	}

	st, _, err := ckpt.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Solver != ckpt.SolverSMO {
		t.Fatalf("checkpoint solver = %q, want %q", st.Solver, ckpt.SolverSMO)
	}
	if err := st.Matches(rp.x, rp.y); err != nil {
		t.Fatal(err)
	}
	resumed := cfg
	resumed.InitialAlpha = st.Alpha
	res1, err := smo.Train(rp.x, rp.y, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !res1.Converged {
		t.Fatal("resumed run did not converge")
	}
	if res1.Iterations >= res0.Iterations {
		t.Fatalf("resume took %d iterations, cold run %d — the warm start bought nothing",
			res1.Iterations, res0.Iterations)
	}
	rp.verifyAndCompare(t, res1.Model, base)
}

// TestDCSVMKillResume crashes one cluster's distributed sub-solve (after an
// earlier cluster already checkpointed its partial solution) and resumes
// the whole divide-and-conquer run from the merged partial checkpoint.
func TestDCSVMKillResume(t *testing.T) {
	rp := loadRecoveryProblem(t, 0.1)
	opts := solver.Options{
		C: rp.c, Eps: rp.eps, Heuristic: core.Multi5pc.Name, Seed: 7, P: 2,
		DC: solver.DCOptions{Clusters: 4, SubSolver: "core", PolishFull: true},
	}

	m0, _, err := dcsvm.Train(rp.x, rp.y, rp.kp, opts)
	if err != nil {
		t.Fatal(err)
	}
	base := rp.baselineObjective(t, m0)

	dir := t.TempDir()
	w, err := ckpt.NewWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	killed := opts
	killed.Checkpoint = w
	killed.CheckpointEvery = 50
	// Workers = 1 serializes the cluster solves, so clusters 0..2 complete
	// (each writing a progress checkpoint) before cluster 3's distributed
	// sub-solve is crashed by the fault plan.
	killed.Workers = 1
	killed.DC.SubFaultCluster = 3
	killed.Faults = mpi.FaultPlan{CrashRank: 1, CrashAtOp: 50}
	_, _, err = dcsvm.Train(rp.x, rp.y, rp.kp, killed)
	if err == nil {
		t.Fatal("run with an injected crash reported success")
	}
	if !errors.Is(err, mpi.ErrInjectedCrash) && !errors.Is(err, mpi.ErrAborted) {
		t.Fatalf("killed run error = %v, want injected crash / abort", err)
	}
	if w.Saves() == 0 {
		t.Fatal("no cluster checkpoint written before the crash")
	}

	st, _, err := ckpt.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Solver != ckpt.SolverDCSVM {
		t.Fatalf("checkpoint solver = %q, want %q", st.Solver, ckpt.SolverDCSVM)
	}
	if err := st.Matches(rp.x, rp.y); err != nil {
		t.Fatal(err)
	}
	resumed := opts
	resumed.InitialAlpha = st.Alpha
	m1, rst, err := dcsvm.Train(rp.x, rp.y, rp.kp, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !rst.Converged {
		t.Fatal("resumed polish did not converge")
	}
	rp.verifyAndCompare(t, m1, base)
}

// TestCrossEngineResume proves the checkpoint format is engine-agnostic:
// a snapshot written by the distributed solver warm-starts the baseline
// (and vice versa), because alpha plus the dataset fingerprint is the whole
// resume contract.
func TestCrossEngineResume(t *testing.T) {
	rp := loadRecoveryProblem(t, 0.05)
	dir := t.TempDir()
	w, err := ckpt.NewWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := core.Config{
		Kernel: rp.kp, C: rp.c, Eps: rp.eps, Heuristic: core.Multi5pc, CheckpointSeed: 7,
	}
	ccfg.Checkpoint, ccfg.CheckpointEvery = w, 5
	m0, _, _, err := core.TrainParallelOpts(rp.x, rp.y, 2, ccfg, mpi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := rp.baselineObjective(t, m0)
	if w.Saves() == 0 {
		t.Skip("run converged before the first checkpoint")
	}
	st, _, err := ckpt.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Matches(rp.x, rp.y); err != nil {
		t.Fatal(err)
	}
	res, err := smo.Train(rp.x, rp.y, smo.Config{
		Kernel: rp.kp, C: rp.c, Eps: rp.eps, Shrinking: true,
		Control: solver.Control{InitialAlpha: st.Alpha},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("cross-engine resume did not converge")
	}
	rp.verifyAndCompare(t, res.Model, base)
}
