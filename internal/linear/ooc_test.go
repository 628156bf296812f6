package linear

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/solver"
	"repro/internal/sparse"
)

// TestTrainOOCBitParity trains both variants against an out-of-core matrix
// under a budget far smaller than the dataset and checks the model is
// byte-identical to training in memory: same W bits, same alpha bits, same
// update counts. This is the contract that lets svmtrain -stream verify its
// model against the in-memory path with a plain byte compare.
func TestTrainOOCBitParity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const rows, cols = 300, 60
	b := sparse.NewBuilder(cols)
	y := make([]float64, rows)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < 0.15 {
				b.Add(j, rng.NormFloat64())
			}
		}
		b.EndRow()
		if rng.Float64() < 0.5 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	x := b.Build()
	x.Cols = cols

	w, err := sparse.NewOOCWriter(t.TempDir(), 2<<10) // a few blocks resident at most
	if err != nil {
		t.Fatal(err)
	}
	const blockRows = 32
	for lo := 0; lo < rows; lo += blockRows {
		hi := min(lo+blockRows, rows)
		blk, err := x.RowRangeView(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AppendBlock(blk); err != nil {
			t.Fatal(err)
		}
	}
	ooc, err := w.Finish(cols)
	if err != nil {
		t.Fatal(err)
	}
	defer ooc.Close()

	for _, variant := range []Variant{DCD, MISO} {
		opts := solver.Options{C: 1, Seed: 7, Linear: solver.LinearOptions{Variant: variant.String(), MaxEpochs: 40}}
		mem, err := Train(x, y, opts)
		if err != nil {
			t.Fatalf("%v in-memory: %v", variant, err)
		}
		got, err := Train(ooc, y, opts)
		if err != nil {
			t.Fatalf("%v ooc: %v", variant, err)
		}
		if got.Epochs != mem.Epochs || got.Iterations != mem.Iterations || got.Converged != mem.Converged {
			t.Fatalf("%v: trajectory differs: epochs %d/%d updates %d/%d",
				variant, got.Epochs, mem.Epochs, got.Iterations, mem.Iterations)
		}
		if len(got.W) != len(mem.W) {
			t.Fatalf("%v: w length %d != %d", variant, len(got.W), len(mem.W))
		}
		for j := range mem.W {
			if math.Float64bits(got.W[j]) != math.Float64bits(mem.W[j]) {
				t.Fatalf("%v: w[%d] differs: %v != %v", variant, j, got.W[j], mem.W[j])
			}
		}
		for i := range mem.Alpha {
			if math.Float64bits(got.Alpha[i]) != math.Float64bits(mem.Alpha[i]) {
				t.Fatalf("%v: alpha[%d] differs", variant, i)
			}
		}
	}
	if loads, _, evictions := ooc.Stats(); loads == 0 || evictions == 0 {
		t.Fatalf("training did not exercise the spill path: %d loads, %d evictions", loads, evictions)
	}
}
