package model

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/sparse"
)

// linearPair builds a model carrying BOTH representations of the same
// linear classifier: a support-vector set with coefficients, and the dense
// hyperplane w = sum_i coef_i * sv_i it collapses to. The kernel path and
// the fast path are then mathematically identical, which is exactly what
// the parity tests exploit.
func linearPair(t testing.TB, nsv, dim int, seed int64) *Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := sparse.NewBuilder(dim)
	coef := make([]float64, nsv)
	w := make([]float64, dim)
	for i := 0; i < nsv; i++ {
		coef[i] = rng.NormFloat64()
		if coef[i] == 0 {
			coef[i] = 1
		}
		for j := 0; j < dim; j++ {
			if rng.Float64() < 0.3 {
				v := rng.NormFloat64()
				b.Add(j, v)
				w[j] += coef[i] * v
			}
		}
		b.EndRow()
	}
	return &Model{
		Kernel: kernel.Params{Type: kernel.Linear},
		C:      10,
		SV:     b.Build(),
		Coef:   coef,
		W:      w,
		Beta:   0.25,
	}
}

func randomRows(n, dim int, seed int64) *sparse.Matrix {
	rng := rand.New(rand.NewSource(seed))
	b := sparse.NewBuilder(dim)
	for i := 0; i < n; i++ {
		for j := 0; j < dim; j++ {
			if rng.Float64() < 0.4 {
				b.Add(j, rng.NormFloat64())
			}
		}
		b.EndRow()
	}
	return b.Build()
}

// TestLinearFastPathParity: with both representations present, the dense
// fast path must reproduce the kernel sweep to floating-point accumulation
// accuracy on every row.
func TestLinearFastPathParity(t *testing.T) {
	m := linearPair(t, 25, 40, 1)
	x := randomRows(200, 40, 2)
	for i := 0; i < x.Rows(); i++ {
		r := x.RowView(i)
		fast := m.DecisionValue(r)
		slow := m.KernelDecisionValue(r)
		if d := math.Abs(fast - slow); d > 1e-9 {
			t.Fatalf("row %d: fast path %v vs kernel path %v (delta %v)", i, fast, slow, d)
		}
	}
}

// TestLinearBatchParity: the batch fan-out must agree with the scalar fast
// path bit for bit, at every worker count (including the sequential one).
func TestLinearBatchParity(t *testing.T) {
	m := linearPair(t, 25, 40, 3)
	x := randomRows(300, 40, 4)
	want := make([]float64, x.Rows())
	for i := range want {
		want[i] = m.DecisionValue(x.RowView(i))
	}
	for _, workers := range []int{1, 2, 4, 0} {
		got := m.DecisionValues(x, workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d row %d: %v vs %v", workers, i, got[i], want[i])
			}
		}
	}
}

// svLess returns a pure fast-path model: dense hyperplane, no support
// vectors — what internal/linear actually ships.
func svLess(dim int, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, dim)
	for j := range w {
		if rng.Float64() < 0.5 {
			w[j] = rng.NormFloat64()
		}
	}
	return &Model{Kernel: kernel.Params{Type: kernel.Linear}, C: 10, W: w, Beta: -0.5, TrainSamples: 7, Iterations: 3}
}

func TestLinearSVLessModel(t *testing.T) {
	m := svLess(30, 5)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	x := randomRows(50, 30, 6)
	// Both the scalar and the batch path must work with no SV set at all.
	got := m.DecisionValues(x, 4)
	for i := range got {
		if want := m.DecisionValue(x.RowView(i)); got[i] != want {
			t.Fatalf("row %d: %v vs %v", i, got[i], want)
		}
	}
}

// TestLinearSerializationRoundTrip: Write -> Read must reproduce the dense
// hyperplane bit for bit, through both bytes and a second Write.
func TestLinearSerializationRoundTrip(t *testing.T) {
	for _, m := range []*Model{svLess(30, 7), linearPair(t, 10, 30, 8)} {
		var buf bytes.Buffer
		if err := m.Write(&buf); err != nil {
			t.Fatal(err)
		}
		first := buf.String()
		got, err := Read(strings.NewReader(first))
		if err != nil {
			t.Fatalf("read back: %v\n%s", err, first)
		}
		if len(got.W) != len(m.W) {
			t.Fatalf("dim %d vs %d", len(got.W), len(m.W))
		}
		for j := range m.W {
			if math.Float64bits(got.W[j]) != math.Float64bits(m.W[j]) {
				t.Fatalf("w[%d]: %v vs %v", j, got.W[j], m.W[j])
			}
		}
		if got.Beta != m.Beta || got.C != m.C || !got.IsLinear() {
			t.Fatalf("metadata drift: beta %v/%v C %v/%v", got.Beta, m.Beta, got.C, m.C)
		}
		// Re-serialization must be byte-stable (the determinism the OVR
		// ensemble tests build on).
		var buf2 bytes.Buffer
		if err := got.Write(&buf2); err != nil {
			t.Fatal(err)
		}
		if buf2.String() != first {
			t.Fatalf("second write differs from first:\n%s\nvs\n%s", buf2.String(), first)
		}
	}
}

// corrupt applies an edit to the serialized text and expects Read to refuse.
func corrupt(t *testing.T, m *Model, wants string, edit func(string) string) {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	mangled := edit(buf.String())
	if mangled == buf.String() {
		t.Fatal("edit changed nothing; the corruption case is vacuous")
	}
	if _, err := Read(strings.NewReader(mangled)); err == nil || !strings.Contains(err.Error(), wants) {
		t.Fatalf("corrupted model accepted or wrong error: %v (want %q)\n%s", err, wants, mangled)
	}
}

func TestLinearSerializationRejectsCorruption(t *testing.T) {
	m := svLess(30, 9)
	// A flipped digit inside the W payload no longer matches the CRC.
	corrupt(t, m, "checksum mismatch", func(s string) string {
		i := strings.Index(s, "\nW\n")
		head, tail := s[:i+3], s[i+3:]
		for _, from := range []string{"1:", "2:", "3:"} {
			if strings.Contains(tail, from) {
				return head + strings.Replace(tail, from+"0", from+"1", 1)
			}
		}
		t.Fatal("no W entry found to corrupt")
		return s
	})
	// Losing the checksum header is as fatal as failing it.
	corrupt(t, m, "w_crc header missing", func(s string) string {
		i := strings.Index(s, "w_crc")
		j := strings.Index(s[i:], "\n")
		return s[:i] + s[i+j+1:]
	})
	// A truncated W section (payload gone, header intact) must not load.
	corrupt(t, m, "W section missing", func(s string) string {
		i := strings.Index(s, "\nW\n")
		return s[:i] + "\n"
	})
	// Reordered entries break the canonical ascending form.
	corrupt(t, m, "not strictly ascending", func(s string) string {
		i := strings.Index(s, "\nW\n")
		head, payload := s[:i+3], strings.TrimSpace(s[i+3:])
		fields := strings.Fields(payload)
		if len(fields) < 2 {
			t.Fatal("need at least two W entries")
		}
		fields[0], fields[1] = fields[1], fields[0]
		return head + strings.Join(fields, " ") + "\n"
	})
	// An unknown format version is refused outright, CRC notwithstanding.
	corrupt(t, m, "unsupported w_format", func(s string) string {
		return strings.Replace(s, "w_format 1", "w_format 2", 1)
	})
	// A wrong dimension changes the canonical encoding, so the CRC catches it.
	corrupt(t, m, "checksum mismatch", func(s string) string {
		return strings.Replace(s, "w_dim 30", "w_dim 31", 1)
	})
	// Duplicate W sections are structurally invalid.
	corrupt(t, m, "duplicate W section", func(s string) string {
		return s + "W\n"
	})
	// A dimension beyond the int32 feature range is refused at the header,
	// not by a failed allocation.
	corrupt(t, m, "w_dim", func(s string) string {
		return strings.Replace(s, "w_dim 30", "w_dim 100000000000000", 1)
	})
	// A large dimension with a wrong checksum fails the CRC before the
	// dense vector is allocated.
	corrupt(t, m, "checksum mismatch", func(s string) string {
		return strings.Replace(s, "w_dim 30", "w_dim 1000000000", 1)
	})
	// An index past the int32 range is refused, not wrapped onto feature 1.
	corrupt(t, m, "W index", func(s string) string {
		i := strings.Index(s, "\nW\n")
		head, tail := s[:i+3], s[i+3:]
		_, rest, _ := strings.Cut(tail, ":")
		return head + "4294967297:" + rest
	})
}

// TestLinearModelValidate covers the W-specific invariants.
func TestLinearModelValidate(t *testing.T) {
	m := svLess(10, 11)
	m.W[3] = math.NaN()
	if err := m.Validate(); err == nil {
		t.Fatal("NaN weight accepted")
	}
	m = svLess(10, 11)
	m.W = nil
	if err := m.Validate(); err == nil {
		t.Fatal("model with neither SVs nor W accepted")
	}
	m = svLess(10, 11)
	m.Coef = []float64{1}
	if err := m.Validate(); err == nil {
		t.Fatal("coefficients without SV matrix accepted")
	}
}
