package model

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/sparse"
)

// handModel builds a tiny RBF model by hand: two SVs at x=-1 (y=-1) and
// x=+1 (y=+1) with alpha=1, beta=0.
func handModel() *Model {
	return &Model{
		Kernel:       kernel.Params{Type: kernel.Gaussian, Gamma: 1},
		C:            10,
		SV:           sparse.FromDense([][]float64{{-1}, {1}}),
		Coef:         []float64{-1, 1},
		Beta:         0,
		TrainSamples: 10,
		Iterations:   42,
	}
}

func TestDecisionValueHand(t *testing.T) {
	m := handModel()
	// f(0) = -K(-1,0) + K(1,0) = 0 by symmetry.
	x0 := sparse.FromDense([][]float64{{0}}).RowView(0)
	if v := m.DecisionValue(x0); math.Abs(v) > 1e-12 {
		t.Fatalf("f(0) = %v, want 0", v)
	}
	// f(1) = -exp(-4) + 1 > 0 -> predict +1
	x1 := sparse.FromDense([][]float64{{1}}).RowView(0)
	want := -math.Exp(-4) + 1
	if v := m.DecisionValue(x1); math.Abs(v-want) > 1e-12 {
		t.Fatalf("f(1) = %v, want %v", v, want)
	}
	if m.Predict(x1) != 1 {
		t.Fatal("Predict(1) != +1")
	}
	xneg := sparse.FromDense([][]float64{{-2}}).RowView(0)
	if m.Predict(xneg) != -1 {
		t.Fatal("Predict(-2) != -1")
	}
}

// TestDecisionValueFarColumn: a query feature past every support vector's
// columns enters the RBF norm only, and must not size the row engine's
// dense scratch (the serving path takes client rows with any index below
// 2^31).
func TestDecisionValueFarColumn(t *testing.T) {
	m := handModel()
	x := sparse.Row{Idx: []int32{0, 1 << 22}, Val: []float64{1, 0.5}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	v := m.DecisionValue(x)
	runtime.ReadMemStats(&after)
	// ||x - sv||^2 is (1 - sv)^2 + 0.5^2 for sv = -1, +1.
	if want := -math.Exp(-4.25) + math.Exp(-0.25); math.Abs(v-want) > 1e-12 {
		t.Fatalf("f(x) = %v, want %v", v, want)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("one decision value allocated %d bytes for a 1-column model", grew)
	}
}

func TestPredictAndEvaluate(t *testing.T) {
	m := handModel()
	x := sparse.FromDense([][]float64{{-1.5}, {-0.5}, {0.5}, {1.5}})
	y := []float64{-1, -1, 1, 1}
	for i := range y {
		if p := m.Predict(x.RowView(i)); p != y[i] {
			t.Fatalf("pred[%d] = %v", i, p)
		}
	}
	mt, err := m.Evaluate(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if mt.Accuracy != 100 || mt.TP != 2 || mt.TN != 2 || mt.FP != 0 || mt.FN != 0 {
		t.Fatalf("metrics = %+v", mt)
	}
	// Flip one label: one false positive.
	y[2] = -1
	mt, err = m.Evaluate(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if mt.FP != 1 || mt.Correct != 3 || mt.Accuracy != 75 {
		t.Fatalf("metrics = %+v", mt)
	}
	if _, err := m.Evaluate(x, y[:2]); err == nil {
		t.Fatal("mismatched labels accepted")
	}
}

func TestSVFraction(t *testing.T) {
	m := handModel()
	if f := m.SVFraction(); f != 0.2 {
		t.Fatalf("SVFraction = %v, want 0.2", f)
	}
}

func TestValidate(t *testing.T) {
	good := handModel()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*Model)
	}{
		{"nil sv", func(m *Model) { m.SV = nil }},
		{"coef count", func(m *Model) { m.Coef = m.Coef[:1] }},
		{"nan coef", func(m *Model) { m.Coef[0] = math.NaN() }},
		{"zero coef", func(m *Model) { m.Coef[0] = 0 }},
		{"coef above C", func(m *Model) { m.Coef[0] = -11 }},
		{"nan beta", func(m *Model) { m.Beta = math.NaN() }},
		{"bad kernel", func(m *Model) { m.Kernel.Gamma = -1 }},
	}
	for _, tc := range cases {
		m := handModel()
		tc.mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	m := handModel()
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Kernel != m.Kernel || m2.C != m.C || m2.Beta != m.Beta {
		t.Fatalf("header mismatch: %+v vs %+v", m2, m)
	}
	if m2.TrainSamples != 10 || m2.Iterations != 42 {
		t.Fatalf("metadata mismatch: %+v", m2)
	}
	if m2.NumSV() != 2 || m2.Coef[0] != -1 || m2.Coef[1] != 1 {
		t.Fatalf("SVs mismatch")
	}
	// Predictions must be identical.
	x := sparse.FromDense([][]float64{{0.3}, {-0.7}})
	for i := 0; i < x.Rows(); i++ {
		a := m.DecisionValue(x.RowView(i))
		b := m2.DecisionValue(x.RowView(i))
		if math.Abs(a-b) > 1e-12 {
			t.Fatalf("decision mismatch: %v vs %v", a, b)
		}
	}
}

func TestSerializePolynomialAndSigmoid(t *testing.T) {
	m := handModel()
	m.Kernel = kernel.Params{Type: kernel.Polynomial, Gamma: 2, Coef0: 1, Degree: 3}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Kernel != m.Kernel {
		t.Fatalf("polynomial kernel mismatch: %+v", m2.Kernel)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"",                       // no SV section
		"bogus_key 1\nSV\n",      // unknown key
		"svm_type nu_svc\nSV\n",  // unsupported type
		"kernel_type warp\nSV\n", // unknown kernel
		"total_sv 5\nkernel_type rbf\ngamma 1\nC 1\nSV\n1 1:1\n", // count mismatch
		"kernel_type rbf\ngamma 1\nC 1\nSV\nx 1:1\n",             // bad coef
		"kernel_type rbf\ngamma 1\nC 1\nSV\n1 0:1\n",             // 0-based index
		"kernel_type rbf\ngamma 1\nC 1\nSV\n1 1x1\n",             // missing colon
		"kernel_type rbf\ngamma 1\nC 1\nSV\n1 4294967297:1\n",    // index past int32
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("accepted malformed model %q", c)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	m := handModel()
	path := t.TempDir() + "/m.model"
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if m2.NumSV() != m.NumSV() {
		t.Fatal("load mismatch")
	}
	if _, err := Load(path + ".missing"); err == nil {
		t.Fatal("missing file loaded")
	}
}

func TestWarmNormsConcurrentSafe(t *testing.T) {
	m := handModel()
	m.WarmNorms()
	x := sparse.FromDense([][]float64{{0.1}})
	done := make(chan struct{}, 8)
	for k := 0; k < 8; k++ {
		go func() {
			for i := 0; i < 100; i++ {
				m.DecisionValue(x.RowView(0))
			}
			done <- struct{}{}
		}()
	}
	for k := 0; k < 8; k++ {
		<-done
	}
}

func TestProbabilitySerializationRoundTrip(t *testing.T) {
	m := handModel()
	m.ProbA, m.ProbB, m.HasProb = -1.5, 0.25, true
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !m2.HasProb || m2.ProbA != -1.5 || m2.ProbB != 0.25 {
		t.Fatalf("probability params lost: %+v", m2)
	}
	x := sparse.FromDense([][]float64{{0.4}}).RowView(0)
	p1, ok1 := m.Probability(x)
	p2, ok2 := m2.Probability(x)
	if !ok1 || !ok2 || math.Abs(p1-p2) > 1e-12 {
		t.Fatalf("probabilities: %v/%v %v/%v", p1, ok1, p2, ok2)
	}
}

func TestProbabilityAbsentByDefault(t *testing.T) {
	m := handModel()
	x := sparse.FromDense([][]float64{{0.4}}).RowView(0)
	if _, ok := m.Probability(x); ok {
		t.Fatal("uncalibrated model reported a probability")
	}
}

func TestProbabilityConsistentWithPrediction(t *testing.T) {
	m := handModel()
	m.ProbA, m.ProbB, m.HasProb = -2, 0, true // P > 0.5 iff f > 0
	for _, v := range []float64{-1.5, -0.3, 0.3, 1.5} {
		x := sparse.FromDense([][]float64{{v}}).RowView(0)
		p, _ := m.Probability(x)
		pred := m.Predict(x)
		if (p > 0.5) != (pred > 0) {
			t.Fatalf("probability %v disagrees with prediction %v at x=%v", p, pred, v)
		}
	}
}

func TestCalibratedSaveLoadFileRoundTrip(t *testing.T) {
	m := handModel()
	m.ProbA, m.ProbB, m.HasProb = -2.25, 0.125, true
	path := t.TempDir() + "/cal.model"
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !m2.HasProb || m2.ProbA != m.ProbA || m2.ProbB != m.ProbB {
		t.Fatalf("calibration lost across file round trip: %+v", m2)
	}
	x := sparse.FromDense([][]float64{{0.2}}).RowView(0)
	p1, _ := m.Probability(x)
	p2, _ := m2.Probability(x)
	if math.Abs(p1-p2) > 1e-12 {
		t.Fatalf("probability %v != %v after round trip", p1, p2)
	}
}

// TestLoadRejectsCorruptedFiles covers the load-time validation the serving
// path relies on: a bad model file must fail Load, never surface at
// request time.
func TestLoadRejectsCorruptedFiles(t *testing.T) {
	good := handModel()
	var buf bytes.Buffer
	if err := good.Write(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	cases := map[string]string{
		"truncated header":   text[:20],
		"nan coefficient":    strings.Replace(text, "\n-1 ", "\nNaN ", 1),
		"infinite sv value":  strings.Replace(text, "1:1", "1:+Inf", 1),
		"zero coefficient":   strings.Replace(text, "\n-1 ", "\n0 ", 1),
		"coef exceeds C":     strings.Replace(text, "\n-1 ", "\n-1e6 ", 1),
		"sv count mismatch":  strings.Replace(text, "total_sv 2", "total_sv 7", 1),
		"negative gamma":     strings.Replace(text, "gamma 1", "gamma -3", 1),
		"binary garbage":     "\x00\x01\x02 not a model",
		"missing SV section": strings.SplitN(text, "SV\n", 2)[0],
	}
	dir := t.TempDir()
	for name, content := range cases {
		path := dir + "/" + strings.ReplaceAll(name, " ", "_") + ".model"
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil {
			t.Errorf("%s: corrupted model file loaded", name)
		}
	}
}
