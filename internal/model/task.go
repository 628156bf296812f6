package model

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"

	"repro/internal/sparse"
)

// Task identifies the QP a model solves. The zero value means TaskCSVC —
// every model written before task kinds existed is a classifier.
type Task string

// Task kinds, named after their libsvm svm_type strings so model files stay
// cross-readable.
const (
	TaskCSVC     Task = "c_svc"
	TaskSVR      Task = "epsilon_svr"
	TaskOneClass Task = "one_class"
)

// ParseTask maps an svm_type string to a Task.
func ParseTask(s string) (Task, error) {
	switch Task(s) {
	case TaskCSVC, TaskSVR, TaskOneClass:
		return Task(s), nil
	default:
		return "", fmt.Errorf("model: unknown task kind %q", s)
	}
}

// TaskKind returns the model's task, mapping the pre-task zero value to
// TaskCSVC.
func (m *Model) TaskKind() Task {
	if m.Task == "" {
		return TaskCSVC
	}
	return m.Task
}

// validateTask checks the task-specific invariants: the kind is known, SVR
// carries a positive epsilon, one-class carries nu in (0, 1] and positive
// coefficients (its duals are alphas, not signed alpha*y).
func (m *Model) validateTask() error {
	switch m.TaskKind() {
	case TaskCSVC:
		if m.Epsilon != 0 || m.Nu != 0 {
			return fmt.Errorf("model: classifier carries task parameters (epsilon=%v, nu=%v)", m.Epsilon, m.Nu)
		}
	case TaskSVR:
		if !(m.Epsilon > 0) || math.IsInf(m.Epsilon, 0) {
			return fmt.Errorf("model: epsilon-SVR requires positive finite epsilon, got %v", m.Epsilon)
		}
		if m.Nu != 0 {
			return fmt.Errorf("model: epsilon-SVR carries nu = %v", m.Nu)
		}
		if m.IsLinear() {
			return fmt.Errorf("model: dense-hyperplane fast path is classifier-only")
		}
	case TaskOneClass:
		if !(m.Nu > 0) || m.Nu > 1 {
			return fmt.Errorf("model: one-class requires nu in (0, 1], got %v", m.Nu)
		}
		if m.Epsilon != 0 {
			return fmt.Errorf("model: one-class carries epsilon = %v", m.Epsilon)
		}
		if m.IsLinear() {
			return fmt.Errorf("model: dense-hyperplane fast path is classifier-only")
		}
		for i, c := range m.Coef {
			if c < 0 {
				return fmt.Errorf("model: one-class coefficient %d is %v; alphas are nonnegative", i, c)
			}
		}
	default:
		return fmt.Errorf("model: unknown task kind %q", m.Task)
	}
	return nil
}

// PredictRegression returns the epsilon-SVR estimate
// z(x) = sum_i d_i Phi(sv_i, x) - Beta — the same kernel expansion the
// classifier evaluates, so every predict/serve/pack path applies unchanged.
func (m *Model) PredictRegression(x sparse.Row) float64 {
	return m.DecisionValue(x)
}

// AnomalyScore returns the signed one-class margin
// sum_i alpha_i Phi(sv_i, x) - rho; nonnegative scores are inliers.
func (m *Model) AnomalyScore(x sparse.Row) float64 {
	return m.DecisionValue(x)
}

// RegressionMetrics summarizes regression quality on a held-out set.
type RegressionMetrics struct {
	Total int
	MSE   float64 // mean squared error
	MAE   float64 // mean absolute error
	R2    float64 // 1 - SS_res/SS_tot (0 when the targets are constant)
}

// EvaluateRegression computes regression metrics of the model on (x, z).
func (m *Model) EvaluateRegression(x *sparse.Matrix, z []float64) (RegressionMetrics, error) {
	if x.Rows() != len(z) {
		return RegressionMetrics{}, fmt.Errorf("model: %d rows but %d targets", x.Rows(), len(z))
	}
	var mt RegressionMetrics
	mt.Total = x.Rows()
	if mt.Total == 0 {
		return mt, nil
	}
	var mean float64
	for _, v := range z {
		mean += v
	}
	mean /= float64(len(z))
	var ssRes, ssTot, absSum float64
	for i := 0; i < x.Rows(); i++ {
		d := m.PredictRegression(x.RowView(i)) - z[i]
		ssRes += d * d
		absSum += math.Abs(d)
		t := z[i] - mean
		ssTot += t * t
	}
	mt.MSE = ssRes / float64(mt.Total)
	mt.MAE = absSum / float64(mt.Total)
	if ssTot > 0 {
		mt.R2 = 1 - ssRes/ssTot
	}
	return mt, nil
}

var contentHashTable = crc64.MakeTable(crc64.ECMA)

// ContentHash returns a CRC-64 over everything that determines the model's
// predictions: task kind and parameters, kernel, box, threshold, support
// vectors with coefficients, and the dense hyperplane. Incremental updates
// (internal/tasks) mix it into the checkpoint fingerprint so a resume is
// bound to the exact base model the warm start came from.
func (m *Model) ContentHash() uint64 {
	h := crc64.New(contentHashTable)
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	putF := func(v float64) { put(math.Float64bits(v)) }
	h.Write([]byte(m.TaskKind()))
	put(uint64(m.Kernel.Type))
	putF(m.Kernel.Gamma)
	putF(m.Kernel.Coef0)
	put(uint64(m.Kernel.Degree))
	putF(m.C)
	putF(m.Beta)
	putF(m.Epsilon)
	putF(m.Nu)
	put(uint64(m.NumSV()))
	for i := 0; i < m.NumSV(); i++ {
		putF(m.Coef[i])
		r := m.SV.RowView(i)
		put(uint64(len(r.Idx)))
		for k, c := range r.Idx {
			put(uint64(uint32(c)))
			putF(r.Val[k])
		}
	}
	put(uint64(len(m.W)))
	for _, v := range m.W {
		putF(v)
	}
	return h.Sum64()
}
