package ckpt

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sparse"
)

// fpDataset builds a random dataset for fingerprint tests.
func fpDataset(seed int64, rows, cols int) (*sparse.Matrix, []float64) {
	rng := rand.New(rand.NewSource(seed))
	b := sparse.NewBuilder(cols)
	y := make([]float64, rows)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < 0.2 {
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
	m := b.Build()
	m.Cols = cols
	return m, y
}

// TestFingerprintOrderSensitive checks the commutative sum does not make the
// fingerprint permutation-blind: swapping two distinct rows (or their
// labels) changes it.
func TestFingerprintOrderSensitive(t *testing.T) {
	x, y := fpDataset(2, 40, 20)
	want := Fingerprint(x, y)

	// Swap labels of two rows with differing labels.
	i, j := -1, -1
	for a := 0; a < len(y) && i < 0; a++ {
		for b := a + 1; b < len(y); b++ {
			if y[a] != y[b] {
				i, j = a, b
				break
			}
		}
	}
	if i < 0 {
		t.Skip("degenerate labels")
	}
	y[i], y[j] = y[j], y[i]
	if Fingerprint(x, y) == want {
		t.Fatal("label swap not detected")
	}
	y[i], y[j] = y[j], y[i]

	// A duplicated dataset (same rows twice) must not collide either.
	b2 := sparse.NewBuilder(x.Cols)
	for pass := 0; pass < 2; pass++ {
		for r := 0; r < x.Rows(); r++ {
			row := x.RowView(r)
			b2.AddRow(row.Idx, row.Val)
		}
	}
	x2 := b2.Build()
	x2.Cols = x.Cols
	if Fingerprint(x2, append(append([]float64(nil), y...), y...)) == want {
		t.Fatal("doubled dataset collides with original")
	}
}

// TestFingerprintDetectsMutation flips a single value/index/label in every
// shard position and checks the composed fingerprint changes — the property
// -resume relies on to reject a silently corrupted shard.
func TestFingerprintDetectsMutation(t *testing.T) {
	x, y := fpDataset(3, 64, 24)
	want := Fingerprint(x, y)

	for k := range x.Val {
		old := x.Val[k]
		x.Val[k] = math.Nextafter(old, math.Inf(1))
		if Fingerprint(x, y) == want {
			t.Fatalf("value mutation at nnz %d not detected", k)
		}
		x.Val[k] = old
	}
	for i := range y {
		y[i] = -y[i]
		if Fingerprint(x, y) == want {
			t.Fatalf("label flip at row %d not detected", i)
		}
		y[i] = -y[i]
	}
	if Fingerprint(x, y) != want {
		t.Fatal("mutations were not fully reverted")
	}
}

// TestMatchesFingerprint checks Matches against datasets that differ in a
// label or in their row count.
func TestMatchesFingerprint(t *testing.T) {
	x, y := fpDataset(5, 25, 12)
	st := &State{N: x.Rows(), Fingerprint: Fingerprint(x, y)}
	if err := st.Matches(x, y); err != nil {
		t.Fatal(err)
	}
	y[3] = -y[3]
	if err := st.Matches(x, y); err == nil {
		t.Fatal("fingerprint mismatch accepted")
	}
	y[3] = -y[3]
	head, err := x.SubMatrix(0, x.Rows()-1)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Matches(head, y[:x.Rows()-1]); err == nil {
		t.Fatal("row-count mismatch accepted")
	}
}
