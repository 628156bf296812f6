// Package linear_test holds the oracle parity checks outside package
// linear: internal/oracle imports internal/dcsvm, which imports
// internal/linear for its linear-kernel sub-solve fast path, so an
// in-package test importing the oracle would close an import cycle.
package linear_test

import (
	"strings"
	"testing"

	"repro/internal/linear"
	"repro/internal/oracle"
	"repro/internal/solver"
)

// The oracle cross-checks: everything the solvers claim (convergence,
// objectives, the hyperplane itself) is re-derived from the training data
// by internal/oracle's linear verifier, so correctness is verified, not
// asserted.

func TestDCDPassesOracle(t *testing.T) {
	x, y, _, _ := linear.TextProblem(t, 0.05)
	res, err := linear.Train(x, y, solver.Options{C: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	prob := oracle.LinearProblem{X: x, Y: y, C: 10, Eps: 1e-3, Loss: oracle.HingeLoss}
	rep, err := prob.VerifyLinearModel(res.Model, res.Alpha)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("oracle rejects the dcd solution: %v\n%s", err, rep)
	}
	// The solver's own objective accounting must agree with the oracle's
	// independent recomputation.
	if d := rep.DualityGap - res.Gap; d > 1e-6 || d < -1e-6 {
		t.Fatalf("solver gap %v vs oracle gap %v", res.Gap, rep.DualityGap)
	}
}

func TestMISOPassesOracle(t *testing.T) {
	x, y, _, _ := linear.TextProblem(t, 0.05)
	res, err := linear.Train(x, y, solver.Options{C: 10, Seed: 3, Linear: solver.LinearOptions{Variant: "miso"}})
	if err != nil {
		t.Fatal(err)
	}
	prob := oracle.LinearProblem{X: x, Y: y, C: 10, Eps: 1e-3, Loss: oracle.SquaredHingeLoss}
	rep, err := prob.VerifyLinearModel(res.Model, res.Alpha)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("oracle rejects the miso solution: %v\n%s", err, rep)
	}
	if d := rep.DualityGap - res.Gap; d > 1e-6 || d < -1e-6 {
		t.Fatalf("solver gap %v vs oracle gap %v", res.Gap, rep.DualityGap)
	}
}

// TestOracleCatchesTampering: the verifier is only worth its name if it
// rejects a solution that has been quietly damaged.
func TestOracleCatchesTampering(t *testing.T) {
	x, y, _, _ := linear.TextProblem(t, 0.03)
	res, err := linear.Train(x, y, solver.Options{C: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	prob := oracle.LinearProblem{X: x, Y: y, C: 10, Eps: 1e-3, Loss: oracle.HingeLoss}

	// A hyperplane that is not the dual point's must fail w-consistency.
	w := make([]float64, len(res.W))
	copy(w, res.W)
	w[0] += 0.5
	rep, err := prob.VerifyLinear(w, 0, res.Alpha)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err == nil || !strings.Contains(err.Error(), "inconsistent") {
		t.Fatalf("tampered w: error = %v, want w-consistency failure", err)
	}

	// A dual point outside its box must fail feasibility.
	alpha := make([]float64, len(res.Alpha))
	copy(alpha, res.Alpha)
	alpha[0] = -1
	if rep, err = prob.VerifyLinear(res.W, 0, alpha); err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err == nil || !strings.Contains(err.Error(), "feasible") {
		t.Fatalf("infeasible alpha: error = %v, want feasibility failure", err)
	}

	// The zero solution is feasible and self-consistent but nowhere near
	// optimal: the gap check must catch it.
	zw := make([]float64, len(res.W))
	za := make([]float64, len(res.Alpha))
	if rep, err = prob.VerifyLinear(zw, 0, za); err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err == nil {
		t.Fatalf("zero solution passed the oracle:\n%s", rep)
	}
}
