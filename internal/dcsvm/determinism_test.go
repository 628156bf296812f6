// Determinism across identically seeded runs, serialized-model-bytes deep.
// This is the property `svmtrain -seed` promises end to end: the same seed
// reaches dataset generation (dataset.GenerateSeeded), k-means clustering,
// and every parallel solve, so two runs must produce byte-identical models
// even with concurrent cluster solves and multi-worker smo.
package dcsvm_test

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dcsvm"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/smo"
	"repro/internal/solver"
	"repro/internal/sparse"
)

func modelBytes(t *testing.T, m *model.Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func trainOnce(t *testing.T, x *sparse.Matrix, y []float64, kp kernel.Params, c float64) ([]byte, []byte) {
	t.Helper()
	dm, _, err := dcsvm.Train(x, y, kp, solver.Options{
		C: c, Eps: 1e-3, Seed: 42, Workers: 4,
		DC: solver.DCOptions{Clusters: 4, SubSolver: "smo"},
	})
	if err != nil {
		t.Fatal(err)
	}
	sres, err := smo.Train(x, y, smo.Config{
		Kernel: kp, C: c, Eps: 1e-3, Workers: 4, Shrinking: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return modelBytes(t, dm), modelBytes(t, sres.Model)
}

func TestSameSeedSameModelBytes(t *testing.T) {
	gen := func() *dataset.Dataset {
		spec, err := dataset.Lookup("blobs")
		if err != nil {
			t.Fatal(err)
		}
		ds, err := dataset.GenerateSeeded(spec, 0.1, 777)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	ds1, ds2 := gen(), gen()
	kp := kernel.FromSigma2(ds1.Sigma2)

	dc1, smo1 := trainOnce(t, ds1.X, ds1.Y, kp, ds1.C)
	dc2, smo2 := trainOnce(t, ds2.X, ds2.Y, kp, ds2.C)
	if !bytes.Equal(dc1, dc2) {
		t.Error("two same-seed dcsvm runs serialized different models")
	}
	if !bytes.Equal(smo1, smo2) {
		t.Error("two same-seed multi-worker smo runs serialized different models")
	}
}
