package linear

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/smo"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// textProblem generates a binary sparse-text-shaped problem (the rcv1
// stand-in) and splits off a holdout: the generated spec publishes no test
// set, and rows are i.i.d. draws, so a trailing slice is an unbiased split.
func textProblem(t *testing.T, scale float64) (trainX *sparse.Matrix, trainY []float64, testX *sparse.Matrix, testY []float64) {
	t.Helper()
	ds := dataset.MustGenerate("rcv1", scale)
	n := ds.X.Rows()
	cut := n * 4 / 5
	var err error
	if trainX, err = ds.X.RowRangeView(0, cut); err != nil {
		t.Fatal(err)
	}
	if testX, err = ds.X.RowRangeView(cut, n); err != nil {
		t.Fatal(err)
	}
	return trainX, ds.Y[:cut], testX, ds.Y[cut:]
}

func TestDCDConverges(t *testing.T) {
	x, y, tx, ty := textProblem(t, 0.05)
	res, err := Train(x, y, solver.Options{C: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("dcd did not converge in %d epochs (gap %v)", res.Epochs, res.Gap)
	}
	if tol := gapTolerance(x.Rows(), 10, 1e-3); res.Gap > tol {
		t.Fatalf("gap %v exceeds tolerance %v", res.Gap, tol)
	}
	if res.Primal < res.Objective {
		t.Fatalf("primal %v below dual %v", res.Primal, res.Objective)
	}
	met, err := res.Model.Evaluate(tx, ty)
	if err != nil {
		t.Fatal(err)
	}
	if met.Accuracy < 90 {
		t.Fatalf("holdout accuracy %v%%", met.Accuracy)
	}
	// The dual point must be box-feasible and reproduce the shipped w.
	for i, a := range res.Alpha {
		if a < 0 || a > 10 {
			t.Fatalf("alpha[%d] = %v outside [0, C]", i, a)
		}
	}
}

func TestMISOConverges(t *testing.T) {
	x, y, tx, ty := textProblem(t, 0.05)
	res, err := Train(x, y, solver.Options{C: 10, Seed: 3, Linear: solver.LinearOptions{Variant: "miso"}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("miso did not converge in %d epochs (gap %v)", res.Epochs, res.Gap)
	}
	if tol := gapTolerance(x.Rows(), 10, 1e-3); res.Gap > tol {
		t.Fatalf("gap %v exceeds tolerance %v", res.Gap, tol)
	}
	met, err := res.Model.Evaluate(tx, ty)
	if err != nil {
		t.Fatal(err)
	}
	if met.Accuracy < 90 {
		t.Fatalf("holdout accuracy %v%%", met.Accuracy)
	}
	for i, a := range res.Alpha {
		if a < 0 {
			t.Fatalf("alpha[%d] = %v negative", i, a)
		}
	}
}

// TestDeterministic: equal seeds give bit-identical hyperplanes, different
// seeds a different (but equally valid) run.
func TestDeterministic(t *testing.T) {
	x, y, _, _ := textProblem(t, 0.03)
	for _, v := range []Variant{DCD, MISO} {
		a, err := Train(x, y, solver.Options{C: 10, Seed: 42, Linear: solver.LinearOptions{Variant: v.String()}})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Train(x, y, solver.Options{C: 10, Seed: 42, Linear: solver.LinearOptions{Variant: v.String()}})
		if err != nil {
			t.Fatal(err)
		}
		if len(a.W) != len(b.W) {
			t.Fatalf("%s: dim %d vs %d", v, len(a.W), len(b.W))
		}
		for j := range a.W {
			if math.Float64bits(a.W[j]) != math.Float64bits(b.W[j]) {
				t.Fatalf("%s: w[%d] differs across equal-seed runs: %v vs %v", v, j, a.W[j], b.W[j])
			}
		}
		if a.Epochs != b.Epochs || a.Iterations != b.Iterations {
			t.Fatalf("%s: trajectory differs: epochs %d/%d updates %d/%d", v, a.Epochs, b.Epochs, a.Iterations, b.Iterations)
		}
	}
}

// TestMatchesSMOAccuracy: on the linear-kernel problem the fast path must
// match the kernel baseline's holdout accuracy within the paper's 0.5%.
func TestMatchesSMOAccuracy(t *testing.T) {
	x, y, tx, ty := textProblem(t, 0.05)
	sres, err := smo.Train(x, y, smo.Config{
		Kernel: kernel.Params{Type: kernel.Linear}, C: 10, Eps: 1e-3,
		Workers: 4, Shrinking: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	smet, err := sres.Model.Evaluate(tx, ty)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []Variant{DCD, MISO} {
		res, err := Train(x, y, solver.Options{C: 10, Seed: 3, Linear: solver.LinearOptions{Variant: v.String()}})
		if err != nil {
			t.Fatal(err)
		}
		met, err := res.Model.Evaluate(tx, ty)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(met.Accuracy - smet.Accuracy); d > 0.5 {
			t.Fatalf("%s accuracy %v%% vs smo %v%%: delta %v exceeds 0.5", v, met.Accuracy, smet.Accuracy, d)
		}
	}
}

// TestShrinkParity: shrinking is a speed device, not a solution change —
// with and without it DCD must land inside the same tolerance band and
// agree on every holdout prediction.
func TestShrinkParity(t *testing.T) {
	x, y, tx, _ := textProblem(t, 0.05)
	shr, err := Train(x, y, solver.Options{C: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := train(x, y, solver.Options{C: 10, Seed: 7}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !shr.Converged || !plain.Converged {
		t.Fatalf("converged: shrink=%v plain=%v", shr.Converged, plain.Converged)
	}
	tol := gapTolerance(x.Rows(), 10, 1e-3)
	if shr.Gap > tol || plain.Gap > tol {
		t.Fatalf("gaps %v / %v exceed %v", shr.Gap, plain.Gap, tol)
	}
	ps, pp := shr.Model.DecisionValues(tx, 0), plain.Model.DecisionValues(tx, 0)
	for i := range ps {
		if (ps[i] >= 0) != (pp[i] >= 0) {
			t.Fatalf("holdout row %d: shrink predicts %v, no-shrink %v", i, ps[i], pp[i])
		}
	}
}

func TestTrainValidation(t *testing.T) {
	x := sparse.FromDense([][]float64{{1, 0}, {0, 1}})
	y := []float64{1, -1}
	cases := []struct {
		name string
		x    *sparse.Matrix
		y    []float64
		opts solver.Options
		want string
	}{
		{"nil matrix", nil, y, solver.Options{C: 1}, "empty training matrix"},
		{"label mismatch", x, []float64{1}, solver.Options{C: 1}, "labels"},
		{"bad label", x, []float64{1, 2}, solver.Options{C: 1}, "want +1 or -1"},
		{"bad C", x, y, solver.Options{C: 0}, "C must be positive"},
		{"bad variant", x, y, solver.Options{C: 1, Linear: solver.LinearOptions{Variant: "sgd"}}, "unknown variant"},
	}
	for _, tc := range cases {
		if _, err := Train(tc.x, tc.y, tc.opts); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestZeroRowHandled: an all-zero sample cannot move w (Q_ii = 0) and must
// not poison the run with NaNs.
func TestZeroRowHandled(t *testing.T) {
	b := sparse.NewBuilder(3)
	b.Add(0, 1)
	b.EndRow()
	b.EndRow() // empty row
	b.Add(1, 1)
	b.EndRow()
	b.Add(0, -1)
	b.Add(2, 0.5)
	b.EndRow()
	x := b.Build()
	y := []float64{1, 1, -1, -1}
	for _, v := range []Variant{DCD, MISO} {
		res, err := Train(x, y, solver.Options{C: 1, Seed: 5, Linear: solver.LinearOptions{Variant: v.String()}})
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		for j, w := range res.W {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				t.Fatalf("%s: w[%d] = %v", v, j, w)
			}
		}
		for i, a := range res.Alpha {
			if math.IsNaN(a) {
				t.Fatalf("%s: alpha[%d] is NaN", v, i)
			}
		}
	}
}

func TestParseVariant(t *testing.T) {
	if v, err := ParseVariant("dcd"); err != nil || v != DCD {
		t.Fatalf("dcd -> %v, %v", v, err)
	}
	if v, err := ParseVariant("miso"); err != nil || v != MISO {
		t.Fatalf("miso -> %v, %v", v, err)
	}
	if _, err := ParseVariant("sgd"); err == nil {
		t.Fatal("expected error for unknown variant")
	}
	if Variant(9).String() == "" {
		t.Fatal("unknown variant must still render")
	}
}

func benchProblem(b *testing.B) (*sparse.Matrix, []float64) {
	b.Helper()
	ds, err := dataset.Generate(dataset.Specs["rcv1"], 0.1)
	if err != nil {
		b.Fatal(err)
	}
	return ds.X, ds.Y
}

func BenchmarkTrainDCD(b *testing.B) {
	x, y := benchProblem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(x, y, solver.Options{C: 10, Seed: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainMISO(b *testing.B) {
	x, y := benchProblem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(x, y, solver.Options{C: 10, Seed: 3, Linear: solver.LinearOptions{Variant: "miso"}}); err != nil {
			b.Fatal(err)
		}
	}
}
