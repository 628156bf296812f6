package tasks

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/oracle"
	"repro/internal/smo"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// regressionSet draws n points in [-2, 2]^2 with targets
// z = sin(x1) + 0.5*x2 plus small noise, seeded for determinism.
func regressionSet(n int, seed int64) (*sparse.Matrix, []float64) {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	z := make([]float64, n)
	for i := range rows {
		x1 := 4*rng.Float64() - 2
		x2 := 4*rng.Float64() - 2
		rows[i] = []float64{x1, x2}
		z[i] = math.Sin(x1) + 0.5*x2 + 0.01*rng.NormFloat64()
	}
	return sparse.FromDense(rows), z
}

// inlierSet draws n points from a unit Gaussian blob, with an optional
// handful of far outliers appended.
func inlierSet(n, outliers int, seed int64) *sparse.Matrix {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, 0, n+outliers)
	for i := 0; i < n; i++ {
		rows = append(rows, []float64{rng.NormFloat64(), rng.NormFloat64()})
	}
	for i := 0; i < outliers; i++ {
		// Isolated far points in different directions, so they cannot form
		// a dense mode of their own.
		theta := 2 * math.Pi * float64(i) / float64(outliers)
		r := 8 + rng.Float64()
		rows = append(rows, []float64{r * math.Cos(theta), r * math.Sin(theta)})
	}
	return sparse.FromDense(rows)
}

var testKernel = kernel.Params{Type: kernel.Gaussian, Gamma: 0.5}

// svrOpts is C = 10, epsilon = 0.1.
func svrOpts() solver.Options {
	return solver.Options{C: 10, Eps: 1e-3, Workers: 2, Task: solver.TaskOptions{Epsilon: 0.1}}
}

// ocOpts is the one-class outlier bound nu.
func ocOpts(nu float64) solver.Options {
	return solver.Options{Eps: 1e-3, Workers: 2, Task: solver.TaskOptions{Nu: nu}}
}

func TestTrainSVROracleVerified(t *testing.T) {
	x, z := regressionSet(120, 1)
	res, err := TrainSVR(x, z, testKernel, svrOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("solver did not converge")
	}
	m := res.Model
	if m.TaskKind() != model.TaskSVR || m.Epsilon != 0.1 {
		t.Fatalf("task=%s epsilon=%v", m.TaskKind(), m.Epsilon)
	}
	rep, err := oracle.SVRProblem{X: x, Z: z, Kernel: m.Kernel, C: m.C, Eps: 1e-3}.VerifyModel(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("oracle rejects the trained SVR model: %v\n%s", err, rep)
	}
	// The fit must actually track the target function.
	mt, err := m.EvaluateRegression(x, z)
	if err != nil {
		t.Fatal(err)
	}
	if mt.MAE > 0.15 {
		t.Fatalf("MAE = %v, predictions do not track targets", mt.MAE)
	}
}

func TestTrainOneClassOracleVerified(t *testing.T) {
	x := inlierSet(150, 8, 2)
	nu := 0.1
	opts := ocOpts(nu)
	// The one-class score range is small (u values ~1/(nu*n)), so a tight
	// solver tolerance keeps the eps-band from swallowing the boundary.
	opts.Eps = 1e-5
	res, err := TrainOneClass(x, testKernel, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("solver did not converge")
	}
	m := res.Model
	rep, err := oracle.OneClassProblem{X: x, Kernel: m.Kernel, Eps: 1e-5}.VerifyModel(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("oracle rejects the trained one-class model: %v\n%s", err, rep)
	}
	// The planted far points must be flagged decisively; training inliers
	// sit at most an eps-band below the boundary (the nu-property bounds
	// the fraction below rho - 2*eps, not below rho exactly).
	n := x.Rows()
	outlierFlagged := 0
	for i := n - 8; i < n; i++ {
		if m.AnomalyScore(x.RowView(i)) < -oracle.KKTTolerance(1e-5) {
			outlierFlagged++
		}
	}
	if outlierFlagged != 8 {
		t.Fatalf("flagged %d/8 planted outliers", outlierFlagged)
	}
	inlierKept := 0
	for i := 0; i < n-8; i++ {
		if m.AnomalyScore(x.RowView(i)) >= -oracle.KKTTolerance(1e-5) {
			inlierKept++
		}
	}
	if frac := float64(inlierKept) / float64(n-8); frac < 1-nu-0.05 {
		t.Fatalf("only %.0f%% of inliers kept (nu=%v)", 100*frac, nu)
	}
}

func TestSVRUpdateMatchesColdRetrain(t *testing.T) {
	xAll, zAll := regressionSet(200, 3)
	nBase := 160
	xBase, _ := xAll.SubMatrix(0, nBase)
	base, err := TrainSVR(xBase, zAll[:nBase], testKernel, svrOpts())
	if err != nil {
		t.Fatal(err)
	}
	upd, err := Update(base.Model, xAll, zAll, svrOpts())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := TrainSVR(xAll, zAll, testKernel, svrOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Both must be eps-optimal for the same QP, so their dual objectives
	// agree within the oracle gap tolerance.
	tol := oracle.GapTolerance(2*xAll.Rows(), 10, 1e-3)
	if diff := math.Abs(upd.Objective - cold.Objective); diff > tol {
		t.Fatalf("update objective %v vs cold %v: |diff| %v > %v", upd.Objective, cold.Objective, diff, tol)
	}
	rep, err := oracle.SVRProblem{X: xAll, Z: zAll, Kernel: base.Model.Kernel, C: 10, Eps: 1e-3}.VerifyModel(upd.Model)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("oracle rejects the updated model: %v", err)
	}
	if upd.Iterations >= cold.Iterations {
		t.Logf("warning: warm start took %d iterations vs cold %d", upd.Iterations, cold.Iterations)
	}
}

func TestOneClassUpdateMatchesColdRetrain(t *testing.T) {
	xAll := inlierSet(180, 6, 4)
	nBase := 150
	xBase, _ := xAll.SubMatrix(0, nBase)
	nu := 0.1
	base, err := TrainOneClass(xBase, testKernel, ocOpts(nu))
	if err != nil {
		t.Fatal(err)
	}
	upd, err := Update(base.Model, xAll, nil, ocOpts(nu))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := TrainOneClass(xAll, testKernel, ocOpts(nu))
	if err != nil {
		t.Fatal(err)
	}
	boxC := 1 / (nu * float64(xAll.Rows()))
	tol := oracle.GapTolerance(xAll.Rows(), boxC, 1e-3)
	if diff := math.Abs(upd.Objective - cold.Objective); diff > tol {
		t.Fatalf("update objective %v vs cold %v: |diff| %v > %v", upd.Objective, cold.Objective, diff, tol)
	}
	rep, err := oracle.OneClassProblem{X: xAll, Kernel: base.Model.Kernel, Eps: 1e-3}.VerifyModel(upd.Model)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("oracle rejects the updated model: %v", err)
	}
}

func TestCSVCUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var rows [][]float64
	var y []float64
	for i := 0; i < 160; i++ {
		cx := 1.5
		label := 1.0
		if i%2 == 0 {
			cx, label = -1.5, -1
		}
		rows = append(rows, []float64{cx + 0.5*rng.NormFloat64(), 0.5 * rng.NormFloat64()})
		y = append(y, label)
	}
	xAll := sparse.FromDense(rows)
	nBase := 120
	xBase, _ := xAll.SubMatrix(0, nBase)
	opts := svrOpts()
	baseRes, err := smo.Train(xBase, y[:nBase], smoConfig(testKernel, opts, 10, xBase, y[:nBase]))
	if err != nil {
		t.Fatal(err)
	}
	upd, err := Update(baseRes.Model, xAll, y, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := oracle.Problem{X: xAll, Y: y, Kernel: testKernel, C: 10, Eps: 1e-3}.VerifyModel(upd.Model)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("oracle rejects the updated classifier: %v", err)
	}
}

func TestUpdateCheckpointBindsBaseModel(t *testing.T) {
	xAll, zAll := regressionSet(80, 6)
	nBase := 60
	xBase, _ := xAll.SubMatrix(0, nBase)
	base, err := TrainSVR(xBase, zAll[:nBase], testKernel, svrOpts())
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "upd.ckpt")
	w, err := ckpt.NewWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := svrOpts()
	opts.Checkpoint = w
	opts.CheckpointEvery = 1
	if _, err := Update(base.Model, xAll, zAll, opts); err != nil {
		t.Fatal(err)
	}
	if w.Saves() == 0 {
		t.Skip("warm start converged before the first checkpoint")
	}
	st, _, err := ckpt.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := ckpt.BindModel(ckpt.Fingerprint(xAll, zAll), base.Model.ContentHash())
	if st.Fingerprint != want {
		t.Fatalf("checkpoint fingerprint %016x, want bound %016x", st.Fingerprint, want)
	}
	// A different base model must produce a different binding.
	base.Model.Beta++
	otherHash := base.Model.ContentHash()
	base.Model.Beta--
	if ckpt.BindModel(ckpt.Fingerprint(xAll, zAll), otherHash) == want {
		t.Fatal("binding does not separate base models")
	}
}

func TestUpdateRejectsMismatchedBase(t *testing.T) {
	xAll, zAll := regressionSet(80, 7)
	nBase := 60
	xBase, _ := xAll.SubMatrix(0, nBase)
	base, err := TrainSVR(xBase, zAll[:nBase], testKernel, svrOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Perturb the data under the model: content matching must fail.
	xOther, zOther := regressionSet(80, 99)
	if _, err := Update(base.Model, xOther, zOther, svrOpts()); err == nil {
		t.Fatal("update accepted a base model trained on different rows")
	}
}

func TestOneClassInitialAlphaFeasible(t *testing.T) {
	for _, tc := range []struct {
		n  int
		nu float64
	}{{10, 0.3}, {7, 0.5}, {100, 0.05}, {5, 1}} {
		alpha := OneClassInitialAlpha(tc.n, tc.nu)
		boxC := 1 / (tc.nu * float64(tc.n))
		var sum float64
		for i, a := range alpha {
			if a < 0 || a > boxC*(1+1e-12) {
				t.Fatalf("n=%d nu=%v: alpha[%d]=%v outside [0,%v]", tc.n, tc.nu, i, a, boxC)
			}
			sum += a
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("n=%d nu=%v: sum=%v, want 1", tc.n, tc.nu, sum)
		}
	}
}

func TestProjectOneClass(t *testing.T) {
	alpha := []float64{0.6, 0.4, 0, 0}
	projectOneClass(alpha, 0.3)
	var sum float64
	for i, a := range alpha {
		if a < 0 || a > 0.3+1e-15 {
			t.Fatalf("alpha[%d]=%v outside box", i, a)
		}
		sum += a
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("sum=%v after projection", sum)
	}
}
