package ckpt

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/sparse"
)

func sampleState() *State {
	return &State{
		Solver:          SolverSMO,
		Iteration:       1234,
		Seed:            42,
		Fingerprint:     0xdeadbeefcafe,
		N:               5,
		Alpha:           []float64{0, 1.5, 0.25, 10, 0},
		Gamma:           []float64{-1, 1, -0.5, 0.5, 0},
		Active:          []bool{true, true, false, true, false},
		ShrinkCountdown: 17,
		Phase:           2,
		ShrinkEvents:    3,
		Reconstructions: 1,
	}
}

func sampleData(t *testing.T) (*sparse.Matrix, []float64) {
	t.Helper()
	b := sparse.NewBuilder(3)
	b.AddRow([]int32{0, 2}, []float64{1, 2})
	b.AddRow([]int32{1}, []float64{3})
	b.AddRow([]int32{0, 1, 2}, []float64{4, 5, 6})
	return b.Build(), []float64{1, -1, 1}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	want := sampleState()
	data := Encode(want)
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Solver != want.Solver || got.Iteration != want.Iteration ||
		got.Seed != want.Seed || got.Fingerprint != want.Fingerprint ||
		got.N != want.N || got.ShrinkCountdown != want.ShrinkCountdown ||
		got.Phase != want.Phase || got.ShrinkEvents != want.ShrinkEvents ||
		got.Reconstructions != want.Reconstructions {
		t.Fatalf("scalar fields mismatch:\ngot  %+v\nwant %+v", got, want)
	}
	for i := range want.Alpha {
		if got.Alpha[i] != want.Alpha[i] || got.Gamma[i] != want.Gamma[i] || got.Active[i] != want.Active[i] {
			t.Fatalf("vector mismatch at %d", i)
		}
	}
	// Canonical encoding: re-encoding the decode yields identical bytes.
	if !bytes.Equal(Encode(got), data) {
		t.Fatal("re-encoded state differs from original bytes")
	}
}

func TestDecodeRejectsOptionalVectorsMissing(t *testing.T) {
	st := sampleState()
	st.Gamma = nil
	st.Active = nil
	got, err := Decode(Encode(st))
	if err != nil {
		t.Fatal(err)
	}
	if got.Gamma != nil || got.Active != nil {
		t.Fatal("empty optional vectors did not round-trip as empty")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	valid := Encode(sampleState())
	cases := map[string]func([]byte) []byte{
		"empty":                func(b []byte) []byte { return nil },
		"truncated header":     func(b []byte) []byte { return b[:headerSize-3] },
		"truncated payload":    func(b []byte) []byte { return b[:len(b)-5] },
		"bad magic":            func(b []byte) []byte { b[0] ^= 0xff; return b },
		"bad version":          func(b []byte) []byte { b[8] = 99; return b },
		"flipped crc":          func(b []byte) []byte { b[13] ^= 0x01; return b },
		"flipped payload byte": func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b },
		"trailing garbage":     func(b []byte) []byte { return append(b, 0xAB) },
		"nan alpha": func(b []byte) []byte {
			st := sampleState()
			st.Alpha[2] = math.NaN()
			return Encode(st)
		},
		"alpha shorter than n": func(b []byte) []byte {
			st := sampleState()
			st.Alpha = st.Alpha[:3]
			st.Gamma, st.Active = nil, nil
			return Encode(st)
		},
	}
	for name, corrupt := range cases {
		b := append([]byte(nil), valid...)
		if _, err := Decode(corrupt(b)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestFingerprintDistinguishesData(t *testing.T) {
	x, y := sampleData(t)
	fp := Fingerprint(x, y)
	// Pinned: a checkpoint written by an earlier build must still match.
	if fp != 0x00ec7760ce5467ca {
		t.Fatalf("fingerprint %#016x, want 0x00ec7760ce5467ca", fp)
	}
	y2 := append([]float64(nil), y...)
	y2[1] = -y2[1]
	if Fingerprint(x, y2) == fp {
		t.Fatal("label flip did not change the fingerprint")
	}
	x2 := &sparse.Matrix{
		RowPtr: append([]int64(nil), x.RowPtr...),
		ColIdx: append([]int32(nil), x.ColIdx...),
		Val:    append([]float64(nil), x.Val...),
		Cols:   x.Cols,
	}
	x2.Val[0] += 1e-9
	if Fingerprint(x2, y) == fp {
		t.Fatal("value perturbation did not change the fingerprint")
	}
}

func TestMatchesValidatesDataset(t *testing.T) {
	x, y := sampleData(t)
	st := &State{N: x.Rows(), Fingerprint: Fingerprint(x, y), Alpha: make([]float64, x.Rows())}
	if err := st.Matches(x, y); err != nil {
		t.Fatal(err)
	}
	st.Fingerprint++
	if err := st.Matches(x, y); err == nil {
		t.Fatal("fingerprint mismatch accepted")
	}
	st.N = 99
	if err := st.Matches(x, y); err == nil {
		t.Fatal("sample-count mismatch accepted")
	}
}

func TestWriterRotatesGenerations(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := sampleState()
	s1.Iteration = 1
	if err := w.Save(s1); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, prevName)); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("previous generation exists after a single save")
	}
	s2 := sampleState()
	s2.Iteration = 2
	if err := w.Save(s2); err != nil {
		t.Fatal(err)
	}
	if w.Saves() != 2 {
		t.Fatalf("Saves() = %d, want 2", w.Saves())
	}
	st, path, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iteration != 2 || path != filepath.Join(dir, latestName) {
		t.Fatalf("loaded iteration %d from %s, want 2 from latest", st.Iteration, path)
	}
	prev, err := os.ReadFile(filepath.Join(dir, prevName))
	if err != nil {
		t.Fatal(err)
	}
	prevSt, err := Decode(prev)
	if err != nil {
		t.Fatal(err)
	}
	if prevSt.Iteration != 1 {
		t.Fatalf("previous generation holds iteration %d, want 1", prevSt.Iteration)
	}
}

// TestLoadFallsBackToPreviousGeneration is the crash-consistency contract:
// a corrupted or truncated latest generation must not lose the run — Load
// returns the retained previous snapshot instead.
func TestLoadFallsBackToPreviousGeneration(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := sampleState()
	s1.Iteration = 1
	s2 := sampleState()
	s2.Iteration = 2
	if err := w.Save(s1); err != nil {
		t.Fatal(err)
	}
	if err := w.Save(s2); err != nil {
		t.Fatal(err)
	}

	for name, corrupt := range map[string]func([]byte) []byte{
		"truncation":  func(b []byte) []byte { return b[:len(b)/2] },
		"flipped bit": func(b []byte) []byte { b[headerSize+3] ^= 0x40; return b },
	} {
		latest := filepath.Join(dir, latestName)
		data, err := os.ReadFile(latest)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(latest, corrupt(append([]byte(nil), data...)), 0o644); err != nil {
			t.Fatal(err)
		}
		st, path, err := Load(dir)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Iteration != 1 || path != filepath.Join(dir, prevName) {
			t.Fatalf("%s: loaded iteration %d from %s, want the previous generation", name, st.Iteration, path)
		}
		// Restore the good latest generation for the next corruption mode.
		if err := os.WriteFile(latest, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLoadEmptyDirFails(t *testing.T) {
	if _, _, err := Load(t.TempDir()); err == nil {
		t.Fatal("load from an empty directory succeeded")
	}
	if _, _, err := Load(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("load from a missing directory succeeded")
	}
}

func TestSaveValidatesState(t *testing.T) {
	w, err := NewWriter(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Save(nil); err == nil {
		t.Fatal("nil state accepted")
	}
	if err := w.Save(&State{N: 3, Alpha: []float64{1}}); err == nil {
		t.Fatal("alpha/N mismatch accepted")
	}
	if _, err := NewWriter(""); err == nil {
		t.Fatal("empty directory accepted")
	}
}

func TestWriterDebounce(t *testing.T) {
	w, err := NewWriter(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w.SetMinInterval(time.Hour)
	if err := w.Save(sampleState()); err != nil {
		t.Fatal(err)
	}
	if err := w.Save(sampleState()); err != nil {
		t.Fatal(err)
	}
	if got := w.Saves(); got != 1 {
		t.Fatalf("debounced writer performed %d saves, want 1", got)
	}
	if got := w.Skipped(); got != 1 {
		t.Fatalf("debounced writer skipped %d saves, want 1", got)
	}
	// Disabling the debounce restores the every-call behavior.
	w.SetMinInterval(0)
	if err := w.Save(sampleState()); err != nil {
		t.Fatal(err)
	}
	if got := w.Saves(); got != 2 {
		t.Fatalf("after disabling the debounce: %d saves, want 2", got)
	}
}
