package model

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/sparse"
)

// svrModel builds a tiny SVR model by hand: d = +1 at x=+1, d = -1 at x=-1.
func svrModel() *Model {
	return &Model{
		Kernel:       kernel.Params{Type: kernel.Gaussian, Gamma: 1},
		C:            10,
		Task:         TaskSVR,
		Epsilon:      0.25,
		SV:           sparse.FromDense([][]float64{{-1}, {1}}),
		Coef:         []float64{-1, 1},
		Beta:         0.5,
		TrainSamples: 10,
	}
}

func oneClassModel() *Model {
	return &Model{
		Kernel:       kernel.Params{Type: kernel.Gaussian, Gamma: 1},
		C:            0.5,
		Task:         TaskOneClass,
		Nu:           0.4,
		SV:           sparse.FromDense([][]float64{{-1}, {1}}),
		Coef:         []float64{0.5, 0.5},
		Beta:         0.3,
		TrainSamples: 5,
	}
}

func TestTaskRoundTrip(t *testing.T) {
	for _, m := range []*Model{svrModel(), oneClassModel()} {
		var buf bytes.Buffer
		if err := m.Write(&buf); err != nil {
			t.Fatalf("%s: write: %v", m.TaskKind(), err)
		}
		got, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: read: %v", m.TaskKind(), err)
		}
		if got.TaskKind() != m.TaskKind() || got.Epsilon != m.Epsilon || got.Nu != m.Nu {
			t.Fatalf("%s: round-trip (task=%s eps=%v nu=%v)", m.TaskKind(), got.TaskKind(), got.Epsilon, got.Nu)
		}
		if got.ContentHash() != m.ContentHash() {
			t.Fatalf("%s: content hash changed across round-trip", m.TaskKind())
		}
	}
}

// TestTaskTamperRejected flips task parameters in the serialized text and
// checks the CRC seal rejects the file.
func TestTaskTamperRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := svrModel().Write(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	cases := map[string]string{
		"epsilon edited":   strings.Replace(text, "svr_epsilon 0.25", "svr_epsilon 0.5", 1),
		"kind spliced":     strings.Replace(text, "svm_type epsilon_svr", "svm_type one_class", 1),
		"epsilon dropped":  strings.Replace(text, "svr_epsilon 0.25\n", "", 1),
		"crc line dropped": dropLine(text, "task_crc"),
		"format dropped":   dropLine(text, "task_format"),
	}
	for name, tampered := range cases {
		if tampered == text {
			t.Fatalf("%s: tamper did not change the file", name)
		}
		if _, err := Read(strings.NewReader(tampered)); err == nil {
			t.Errorf("%s: tampered model accepted", name)
		}
	}
	// A c_svc model that grows task headers is also rejected.
	var cbuf bytes.Buffer
	if err := handModel().Write(&cbuf); err != nil {
		t.Fatal(err)
	}
	spliced := strings.Replace(cbuf.String(), "svm_type c_svc\n", "svm_type c_svc\ntask_format 1\n", 1)
	if _, err := Read(strings.NewReader(spliced)); err == nil {
		t.Error("c_svc with task headers accepted")
	}
}

func dropLine(text, prefix string) string {
	lines := strings.Split(text, "\n")
	out := lines[:0]
	for _, l := range lines {
		if !strings.HasPrefix(l, prefix) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

func TestTaskValidate(t *testing.T) {
	bad := []func(*Model){
		func(m *Model) { m.Epsilon = 0 },
		func(m *Model) { m.Epsilon = -1 },
		func(m *Model) { m.Nu = 0.5 },
		func(m *Model) { m.Task = "weird" },
	}
	for i, mut := range bad {
		m := svrModel()
		mut(m)
		if err := m.Validate(); err == nil {
			t.Errorf("svr mutation %d accepted", i)
		}
	}
	oc := oneClassModel()
	oc.Nu = 1.5
	if err := oc.Validate(); err == nil {
		t.Error("nu > 1 accepted")
	}
	oc = oneClassModel()
	oc.Coef[0] = -0.5
	if err := oc.Validate(); err == nil {
		t.Error("negative one-class coef accepted")
	}
	cl := handModel()
	cl.Epsilon = 0.1
	if err := cl.Validate(); err == nil {
		t.Error("classifier with epsilon accepted")
	}
}

func TestRegressionAndAnomalyPaths(t *testing.T) {
	m := svrModel()
	x := sparse.FromDense([][]float64{{0}}).RowView(0)
	// z(0) = -K(-1,0) + K(1,0) - 0.5 = -0.5 by symmetry.
	if v := m.PredictRegression(x); math.Abs(v+0.5) > 1e-12 {
		t.Fatalf("z(0) = %v, want -0.5", v)
	}
	xs := sparse.FromDense([][]float64{{-1}, {1}})
	z := []float64{m.PredictRegression(xs.RowView(0)), m.PredictRegression(xs.RowView(1))}
	mt, err := m.EvaluateRegression(xs, z)
	if err != nil {
		t.Fatal(err)
	}
	if mt.MSE > 1e-24 || mt.MAE > 1e-12 || mt.R2 < 1-1e-12 {
		t.Fatalf("self-evaluation metrics = %+v", mt)
	}
	if _, err := m.EvaluateRegression(xs, z[:1]); err == nil {
		t.Fatal("mismatched targets accepted")
	}

	oc := oneClassModel()
	// score(0) = 0.5*K(-1,0) + 0.5*K(1,0) - 0.3 = exp(-1) - 0.3 > 0: inlier.
	x0 := sparse.FromDense([][]float64{{0}}).RowView(0)
	if oc.AnomalyScore(x0) < 0 {
		t.Fatalf("origin not an inlier (score %v)", oc.AnomalyScore(x0))
	}
	// score(5) ~ -0.3 < 0: outlier.
	x5 := sparse.FromDense([][]float64{{5}}).RowView(0)
	if oc.AnomalyScore(x5) >= 0 {
		t.Fatalf("far point not an outlier (score %v)", oc.AnomalyScore(x5))
	}
}

func TestContentHashSensitivity(t *testing.T) {
	base := svrModel().ContentHash()
	m := svrModel()
	m.Epsilon = 0.26
	if m.ContentHash() == base {
		t.Error("epsilon change did not move the hash")
	}
	m = svrModel()
	m.Coef[0] = -0.9
	if m.ContentHash() == base {
		t.Error("coef change did not move the hash")
	}
	m = svrModel()
	m.Beta = 0
	if m.ContentHash() == base {
		t.Error("beta change did not move the hash")
	}
}
