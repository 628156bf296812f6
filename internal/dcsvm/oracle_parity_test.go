// Oracle parity for divide-and-conquer training (external test package:
// the oracle imports dcsvm). The union-only polish is approximate by
// construction — samples outside the support-vector union are never
// re-checked against the full QP — so only the PolishFull refinement is
// held to eps-optimality; the default mode's report documents how far from
// optimal it lands.
package dcsvm_test

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/dcsvm"
	"repro/internal/kernel"
	"repro/internal/oracle"
	"repro/internal/solver"
)

func TestOracleParityFullPolish(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.1)
	kp := kernel.FromSigma2(ds.Sigma2)
	prob := oracle.Problem{X: ds.X, Y: ds.Y, Kernel: kp, C: ds.C, Eps: 1e-3}
	for _, sub := range []string{"core", "smo"} {
		m, st, err := dcsvm.Train(ds.X, ds.Y, kp, solver.Options{
			C: ds.C, Eps: 1e-3, Seed: 7,
			DC: solver.DCOptions{Clusters: 4, SubSolver: sub, PolishFull: true},
		})
		if err != nil {
			t.Fatalf("%s: %v", sub, err)
		}
		if !st.Converged {
			t.Fatalf("%s: full polish did not converge", sub)
		}
		rep, err := prob.VerifyModel(m)
		if err != nil {
			t.Fatalf("%s: %v", sub, err)
		}
		if err := rep.Check(); err != nil {
			t.Errorf("%s full-polish model fails the oracle: %v", sub, err)
		}
	}
}

func TestOracleReportsUnionPolishGap(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.1)
	kp := kernel.FromSigma2(ds.Sigma2)
	prob := oracle.Problem{X: ds.X, Y: ds.Y, Kernel: kp, C: ds.C, Eps: 1e-3}

	opts := solver.Options{C: ds.C, Eps: 1e-3, Seed: 7, DC: solver.DCOptions{Clusters: 4, SubSolver: "smo"}}
	m, _, err := dcsvm.Train(ds.X, ds.Y, kp, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := prob.VerifyModel(m)
	if err != nil {
		t.Fatal(err)
	}
	// The union-only model must still be verifiable (gap and violations are
	// reported even when Check fails), and the full polish from the same
	// configuration must strictly improve — or match — its duality gap.
	opts.DC.PolishFull = true
	full, _, err := dcsvm.Train(ds.X, ds.Y, kp, opts)
	if err != nil {
		t.Fatal(err)
	}
	fullRep, err := prob.VerifyModel(full)
	if err != nil {
		t.Fatal(err)
	}
	if fullRep.DualityGap > rep.DualityGap+1e-9 {
		t.Errorf("full polish widened the duality gap: %.6g > %.6g", fullRep.DualityGap, rep.DualityGap)
	}
	if fullRep.DualObjective+1e-9 < rep.DualObjective {
		t.Errorf("full polish lowered the dual objective: %.9f < %.9f", fullRep.DualObjective, rep.DualObjective)
	}
}
