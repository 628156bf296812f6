package smo

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/kernel"
)

func TestTraceRecording(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.25)
	cfg := Config{
		Kernel: kernel.FromSigma2(ds.Sigma2), C: ds.C, Eps: 1e-3, Workers: 2,
		Shrinking: true, ShrinkEvery: 100,
		RecordTrace: true,
	}
	res, err := Train(ds.X, ds.Y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if tr == nil {
		t.Fatal("no trace recorded")
	}
	// The solver leaves the dataset label to the caller that names it.
	if tr.Dataset != "" || tr.Heuristic != "libsvm-enhanced" {
		t.Fatalf("trace header: %+v", tr)
	}
	if tr.N != ds.Train() || tr.Iterations != res.Iterations {
		t.Fatalf("trace totals: N=%d iters=%d vs result %d/%d", tr.N, tr.Iterations, ds.Train(), res.Iterations)
	}
	if tr.Converged != res.Converged || tr.SVCount != res.Model.NumSV() {
		t.Fatalf("trace stats mismatch: %+v vs %+v", tr, res)
	}
	if len(tr.Recons) != res.Reconstructions {
		t.Fatalf("trace recons %d != result %d", len(tr.Recons), res.Reconstructions)
	}
	if res.ShrinkEvents > 0 && len(tr.Segments) < 2 {
		t.Fatal("shrinking happened but trace has no segments")
	}
	if tr.MeanActiveFraction() <= 0 || tr.MeanActiveFraction() > 1 {
		t.Fatalf("mean active = %v", tr.MeanActiveFraction())
	}
	// Avg NNZ is populated for the performance model.
	if tr.AvgNNZ <= 0 {
		t.Fatalf("AvgNNZ = %v", tr.AvgNNZ)
	}
}

func TestNoTraceByDefault(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.1)
	res, err := Train(ds.X, ds.Y, Config{Kernel: kernel.FromSigma2(ds.Sigma2), C: ds.C, Eps: 1e-2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatal("trace recorded without RecordTrace")
	}
}
