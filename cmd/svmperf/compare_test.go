package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuartiles pins the cut points to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{"time_ms", "ms", "lower", 0.10}
	higher := metricDef{"accuracy_pct", "%", "higher", 0.01}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	acc := []float64{96, 96, 96, 96, 96, 96, 96, 96, 96, 96}
	for _, tc := range []struct {
		name       string
		d          metricDef
		base, head []float64
		want       string
	}{
		{"same runs", lower, base, base, unchanged},
		{"within bound", lower, base, scaled(base, 1.05), unchanged},
		{"past bound", lower, base, scaled(base, 1.2), worse},
		{"clear gain", lower, base, scaled(base, 0.8), better},
		{"gain inside base spread", lower, base, scaled(base, 0.995), unchanged},
		{"spread too wide", lower, wide, scaled(wide, 0.9), unresolved},
		{"spread too wide but every head run wins", lower, wide, scaled(base, 0.5), better},
		{"spread too wide and every head run loses", lower, wide, scaled(base, 1.5), worse},
		{"higher is better, dropped", higher, acc, scaled(acc, 0.97), worse},
		{"higher is better, rose", higher, acc, scaled(acc, 1.005), better},
	} {
		if got, _ := judge(tc.d, tc.base, tc.head); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// writeRuns writes one run record per value, as -out would.
func writeRuns(t *testing.T, path string, failed int, values map[string][]float64) {
	t.Helper()
	var buf bytes.Buffer
	n := len(values["time_ms"])
	for i := 0; i < n; i++ {
		r := result{Workload: "paper-codrna", Correct: failed == 0, Attempted: 100, Failed: failed,
			Metrics: map[string]value{}, Env: environment{Seed: int64(i + 1)}}
		for name, vs := range values {
			r.Metrics[name] = value{Value: vs[i]}
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(b, '\n'))
	}
	// A traced record is ignored by compare.
	tr, _ := json.Marshal(result{Workload: "paper-codrna", Trace: true, Metrics: map[string]value{"time_ms": {Value: 1e9}}})
	buf.Write(append(tr, '\n'))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.jsonl")
	writeRuns(t, base, 0, map[string][]float64{
		"time_ms":      {100, 101, 99, 100, 102},
		"accuracy_pct": {96, 96, 96, 96, 96},
	})
	for _, tc := range []struct {
		name     string
		failed   int
		values   map[string][]float64
		code     int
		contains []string
	}{
		{"unchanged", 0, map[string][]float64{"time_ms": {100, 100, 101, 99, 100}, "accuracy_pct": {96, 96, 96, 96, 96}},
			0, []string{"time_ms", "unchanged", "fail_frac"}},
		{"slower", 0, map[string][]float64{"time_ms": {130, 131, 129, 130, 132}, "accuracy_pct": {96, 96, 96, 96, 96}},
			1, []string{"worse"}},
		{"faster", 0, map[string][]float64{"time_ms": {70, 71, 69, 70, 72}, "accuracy_pct": {96, 96, 96, 96, 96}},
			0, []string{"better"}},
		{"more failures", 3, map[string][]float64{"time_ms": {100, 100, 101, 99, 100}, "accuracy_pct": {96, 96, 96, 96, 96}},
			1, []string{"WORSE"}},
	} {
		head := filepath.Join(dir, tc.name+".jsonl")
		writeRuns(t, head, tc.failed, tc.values)
		var out, errOut bytes.Buffer
		if code := run([]string{"-compare", base, head}, &out, &errOut); code != tc.code {
			t.Errorf("%s: exit %d, want %d\n%s%s", tc.name, code, tc.code, out.String(), errOut.String())
		}
		for _, s := range tc.contains {
			if !strings.Contains(out.String(), s) {
				t.Errorf("%s: output lacks %q:\n%s", tc.name, s, out.String())
			}
		}
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-compare", base}, &out, &errOut); code != 2 {
		t.Errorf("-compare with one file exited %d, want 2", code)
	}
}
