package trace

import (
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func TestLoadRejectsMalformedInput(t *testing.T) {
	cases := map[string]string{
		"invalid json":           "{not json",
		"empty input":            "",
		"wrong type":             `{"n": "three", "segments": [{"from":0,"active":3}]}`,
		"missing n":              `{"segments": [{"from":0,"active":3}]}`,
		"zero n":                 `{"n": 0, "segments": [{"from":0,"active":0}]}`,
		"negative n":             `{"n": -5, "segments": [{"from":0,"active":5}]}`,
		"missing segments":       `{"n": 100}`,
		"empty segments":         `{"n": 100, "segments": []}`,
		"first segment not at 0": `{"n": 100, "segments": [{"from":5,"active":100}]}`,
		"segments out of order":  `{"n": 100, "segments": [{"from":0,"active":100},{"from":50,"active":60},{"from":20,"active":40}]}`,
		"repeated segment start": `{"n": 100, "segments": [{"from":0,"active":100},{"from":0,"active":60}]}`,
		"negative active":        `{"n": 100, "segments": [{"from":0,"active":-1}]}`,
		"active above n":         `{"n": 100, "segments": [{"from":0,"active":100},{"from":10,"active":101}]}`,
		"negative iterations":    `{"n": 100, "iterations": -1, "segments": [{"from":0,"active":100}]}`,
		"negative shrunk":        `{"n": 100, "segments": [{"from":0,"active":100}], "recons": [{"iter":5,"shrunk":-3,"svs":10}]}`,
		"shrunk above n":         `{"n": 100, "segments": [{"from":0,"active":100}], "recons": [{"iter":5,"shrunk":101,"svs":10}]}`,
		"negative svs":           `{"n": 100, "segments": [{"from":0,"active":100}], "recons": [{"iter":5,"shrunk":30,"svs":-1}]}`,
		"svs above n":            `{"n": 100, "segments": [{"from":0,"active":100}], "recons": [{"iter":5,"shrunk":30,"svs":101}]}`,
	}
	for name, input := range cases {
		if _, err := Load(strings.NewReader(input)); err == nil {
			t.Errorf("%s: Load accepted %q", name, input)
		}
	}
}

func TestLoadWriteJSONRoundTrip(t *testing.T) {
	tr := New("Multi5pc", 1000, 12.5, 1e-3)
	tr.SetActive(50, 400)
	tr.AddRecon(90, 600, 120)
	tr.Iterations = 200
	tr.Converged = true
	tr.SVCount = 150

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != tr.N || got.Iterations != tr.Iterations || got.SVCount != tr.SVCount ||
		len(got.Segments) != len(tr.Segments) || len(got.Recons) != len(tr.Recons) {
		t.Fatalf("round trip changed the trace:\ngot  %+v\nwant %+v", got, tr)
	}
}

// failingWriter fails after a few bytes, exercising WriteJSON's error path.
type failingWriter struct{ budget int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.budget {
		n := w.budget
		w.budget = 0
		return n, errors.New("synthetic write failure")
	}
	w.budget -= len(p)
	return len(p), nil
}

func TestWriteJSONPropagatesWriterError(t *testing.T) {
	tr := New("Original", 10, 1, 1e-3)
	if err := tr.WriteJSON(&failingWriter{budget: 4}); err == nil {
		t.Fatal("WriteJSON swallowed the writer's error")
	}
}

func TestSaveJSONPropagatesCreateError(t *testing.T) {
	tr := New("Original", 10, 1, 1e-3)
	// A path whose parent does not exist cannot be created.
	bad := filepath.Join(t.TempDir(), "missing-dir", "trace.json")
	if err := tr.SaveJSON(bad); err == nil {
		t.Fatal("SaveJSON succeeded on an uncreatable path")
	}
}

func TestScaledUpZeroAndNegativeFactor(t *testing.T) {
	tr := New("Original", 100, 1, 1e-3)
	tr.Iterations = 50
	tr.SetActive(10, 40)
	for _, factor := range []float64{0, -3} {
		got := tr.ScaledUp(factor)
		if got.N != tr.N || got.Iterations != tr.Iterations {
			t.Fatalf("factor %v: scaled to N=%d iters=%d, want identity (N=%d iters=%d)",
				factor, got.N, got.Iterations, tr.N, tr.Iterations)
		}
		if len(got.Segments) != len(tr.Segments) || got.Segments[1].Active != 40 {
			t.Fatalf("factor %v: segments not preserved: %+v", factor, got.Segments)
		}
	}
}

func TestScaledUpEmptyTrace(t *testing.T) {
	// A freshly-created trace has one segment and no recons; scaling must
	// not invent events or divide by zero.
	tr := New("Original", 10, 0, 1e-3)
	got := tr.ScaledUp(3)
	if got.N != 30 || got.Iterations != 0 {
		t.Fatalf("scaled empty trace to N=%d iters=%d, want N=30 iters=0", got.N, got.Iterations)
	}
	if len(got.Recons) != 0 {
		t.Fatalf("scaling invented %d reconstruction events", len(got.Recons))
	}
	if got.MeanActiveFraction() != 0 {
		t.Fatalf("mean active fraction of a zero-iteration trace = %v, want 0", got.MeanActiveFraction())
	}
}

func TestScaledUpScalesBothAxes(t *testing.T) {
	tr := New("Original", 100, 1, 1e-3)
	tr.Iterations = 1000
	tr.SetActive(100, 20)
	tr.AddRecon(500, 80, 30)
	got := tr.ScaledUp(2.5)
	if got.N != 250 || got.Iterations != 2500 {
		t.Fatalf("populations/iterations scaled to N=%d iters=%d, want 250/2500", got.N, got.Iterations)
	}
	if got.Segments[1].FromIter != 250 || got.Segments[1].Active != 50 {
		t.Fatalf("segment scaled to %+v, want {250 50}", got.Segments[1])
	}
	if got.Recons[0].Iter != 1250 || got.Recons[0].Shrunk != 200 || got.Recons[0].SVs != 75 {
		t.Fatalf("recon scaled to %+v, want {1250 200 75}", got.Recons[0])
	}
	// Scaling both axes preserves the iteration-weighted active fraction.
	if a, b := tr.MeanActiveFraction(), got.MeanActiveFraction(); math.Abs(a-b) > 0.02 {
		t.Fatalf("mean active fraction drifted: %v -> %v", a, b)
	}
}
