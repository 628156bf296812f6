package multiclass

import (
	"errors"
	"testing"

	"repro/internal/dcsvm"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// TestTrainWithDCSVM composes the one-vs-rest reduction with the
// divide-and-conquer engine: each binary subproblem is clustered, solved
// per cluster, and polished, and the ensemble must still separate the blobs.
func TestTrainWithDCSVM(t *testing.T) {
	x, y := threeBlobs(300, 3)
	m, err := TrainWith(x, y, func(bx *sparse.Matrix, by []float64) (*model.Model, error) {
		dm, _, err := dcsvm.Train(bx, by, kernel.Params{Type: kernel.Gaussian, Gamma: 0.5},
			solver.Options{C: 10, Seed: 5, DC: solver.DCOptions{Clusters: 3}})
		return dm, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Binary) != 3 {
		t.Fatalf("ensemble has %d machines, want 3", len(m.Binary))
	}
	acc, err := m.Evaluate(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 95 {
		t.Fatalf("dc ensemble training accuracy %.2f%%, want >= 95%%", acc)
	}
}

// TestTrainWithPropagatesErrors: a trainer failure must surface with the
// failing class identified, for both the binary fast path and the
// one-vs-rest loop.
func TestTrainWithPropagatesErrors(t *testing.T) {
	boom := errors.New("boom")
	fail := func(bx *sparse.Matrix, by []float64) (*model.Model, error) {
		return nil, boom
	}

	x, y := threeBlobs(30, 1)
	if _, err := TrainWith(x, y, fail); !errors.Is(err, boom) {
		t.Fatalf("one-vs-rest error = %v, want wrapped boom", err)
	}

	bx := sparse.FromDense([][]float64{{-1}, {1}})
	if _, err := TrainWith(bx, []float64{-1, 1}, fail); !errors.Is(err, boom) {
		t.Fatalf("binary fast-path error = %v, want boom", err)
	}
}

func TestEvaluateErrorPaths(t *testing.T) {
	x, y := threeBlobs(60, 2)
	m, err := Train(x, y, 1, cfg())
	if err != nil {
		t.Fatal(err)
	}

	// Length mismatch is an error, not a silent truncation.
	if _, err := m.Evaluate(x, y[:10]); err == nil {
		t.Error("Evaluate accepted mismatched labels")
	}

	// An empty evaluation set is defined as 0% without error.
	empty := sparse.FromDense(nil)
	acc, err := m.Evaluate(empty, nil)
	if err != nil {
		t.Fatalf("empty Evaluate: %v", err)
	}
	if acc != 0 {
		t.Fatalf("empty Evaluate = %v, want 0", acc)
	}
}
