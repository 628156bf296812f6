package multiclass

import (
	"bytes"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/linear"
	"repro/internal/model"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// ringBlobs builds a k-class 2-D dataset: one Gaussian blob per class on a
// circle of radius 3, so every one-vs-rest subproblem is (nearly) linearly
// separable and the parallel ensemble keeps all GOMAXPROCS slots busy.
func ringBlobs(n, k int, seed int64) (*sparse.Matrix, []float64) {
	rng := rand.New(rand.NewSource(seed))
	d := make([][]float64, n)
	y := make([]float64, n)
	for i := range d {
		c := i % k
		ang := 2 * math.Pi * float64(c) / float64(k)
		d[i] = []float64{
			3*math.Cos(ang) + 0.4*rng.NormFloat64(),
			3*math.Sin(ang) + 0.4*rng.NormFloat64(),
		}
		y[i] = float64(c)
	}
	return sparse.FromDense(d), y
}

func linearTrainer(seed int64) Trainer {
	return func(bx *sparse.Matrix, by []float64) (*model.Model, error) {
		res, err := linear.Train(bx, by, solver.Options{C: 10, Seed: seed})
		if err != nil {
			return nil, err
		}
		return res.Model, nil
	}
}

// TestTrainWithLinearOVR: the parallel one-vs-rest reduction over the
// linear fast path classifies a multi-class ring.
func TestTrainWithLinearOVR(t *testing.T) {
	x, y := ringBlobs(600, 6, 1)
	m, err := TrainWith(x, y, linearTrainer(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Binary) != 6 {
		t.Fatalf("%d machines", len(m.Binary))
	}
	for ci, b := range m.Binary {
		if b == nil || !b.IsLinear() {
			t.Fatalf("machine %d missing or not linear", ci)
		}
	}
	tx, ty := ringBlobs(300, 6, 2)
	acc, err := m.Evaluate(tx, ty)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 95 {
		t.Fatalf("6-class linear OVR accuracy %v%%", acc)
	}
}

// TestTrainWithSameSeedByteIdentical: goroutine scheduling must not leak
// into the ensemble — two same-seed runs serialize to identical bytes.
func TestTrainWithSameSeedByteIdentical(t *testing.T) {
	x, y := ringBlobs(400, 8, 4)
	var bufs [2]bytes.Buffer
	for r := range bufs {
		m, err := TrainWith(x, y, linearTrainer(11))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Write(&bufs[r]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Fatal("same-seed parallel OVR runs serialized differently")
	}
}

// TestTrainWithRoutesEveryClass: the reduction hands each trainer call a
// full-length {+1,-1} relabeling with exactly one class positive, and calls
// it once per class.
func TestTrainWithRoutesEveryClass(t *testing.T) {
	x, y := ringBlobs(300, 5, 5)
	var calls atomic.Int64
	var posCounts [5]atomic.Int64
	trainer := func(bx *sparse.Matrix, by []float64) (*model.Model, error) {
		calls.Add(1)
		if bx.Rows() != x.Rows() || len(by) != len(y) {
			t.Errorf("trainer saw %d rows / %d labels, want %d", bx.Rows(), len(by), x.Rows())
		}
		pos := 0
		for i, v := range by {
			switch v {
			case 1:
				pos++
			case -1:
			default:
				t.Errorf("label %d is %v, want +1/-1", i, v)
			}
		}
		// Recover which class this call is from the positive set.
		for i, v := range by {
			if v == 1 {
				posCounts[int(y[i])].Add(int64(pos))
				break
			}
		}
		return linearTrainer(7)(bx, by)
	}
	if _, err := TrainWith(x, y, trainer); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 5 {
		t.Fatalf("%d trainer calls for 5 classes", calls.Load())
	}
	for c := range posCounts {
		if posCounts[c].Load() != 60 {
			t.Fatalf("class %d: positive count %d, want 60", c, posCounts[c].Load())
		}
	}
}

// TestTrainWithHammer: many classes, repeated runs — the workload the race
// detector chews on in CI (go test -race ./internal/multiclass/...).
func TestTrainWithHammer(t *testing.T) {
	x, y := ringBlobs(480, 12, 6)
	for round := 0; round < 3; round++ {
		m, err := TrainWith(x, y, linearTrainer(int64(13+round)))
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Binary) != 12 {
			t.Fatalf("round %d: %d machines", round, len(m.Binary))
		}
	}
}

// TestTrainWithLinearErrorDeterministic: with several failing classes the
// reported class must be the first in class order, not a scheduling race.
func TestTrainWithLinearErrorDeterministic(t *testing.T) {
	x, y := ringBlobs(120, 4, 7)
	failing := func(bx *sparse.Matrix, by []float64) (*model.Model, error) {
		// Fail on every class whose positive set includes a sample of class
		// >= 1 as positive — i.e. all but class 0 — with a config error.
		for i, v := range by {
			if v == 1 && y[i] >= 1 {
				return nil, errTrainer{}
			}
		}
		return linearTrainer(7)(bx, by)
	}
	for round := 0; round < 5; round++ {
		_, err := TrainWith(x, y, failing)
		if err == nil {
			t.Fatal("expected error")
		}
		if want := "multiclass: class 1:"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
			t.Fatalf("round %d: error %q does not name the first failing class", round, err)
		}
	}
}

type errTrainer struct{}

func (errTrainer) Error() string { return "boom" }
