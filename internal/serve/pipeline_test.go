package serve

import (
	"context"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/linear"
	"repro/internal/model"
	"repro/internal/serve/batcher"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// trainLinear fits a small linear-w model (no support vectors: serving it
// exercises the W-only predict path end to end).
func trainLinear(t *testing.T, c float64, seed int64) *model.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const n, dim = 120, 6
	b := sparse.NewBuilder(dim)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		idx := make([]int32, 0, dim)
		val := make([]float64, 0, dim)
		var s float64
		for j := 0; j < dim; j++ {
			if rng.Float64() < 0.7 {
				v := rng.NormFloat64()
				idx = append(idx, int32(j))
				val = append(val, v)
				if j%2 == 0 {
					s += v
				} else {
					s -= v
				}
			}
		}
		b.AddRow(idx, val)
		if s >= 0 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	res, err := linear.Train(b.Build(), y, solver.Options{C: c, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return res.Model
}

// TestLinearModelServingRoundTrip is the satellite-2 round trip: a trained
// linear-w model (nil SV) is saved, served, predicted against through the
// coalescing pipeline, hot-reloaded with a retrained version, and predicted
// against again — each answer bit-identical to the in-process model.
func TestLinearModelServingRoundTrip(t *testing.T) {
	m1 := trainLinear(t, 1.0, 7)
	path := t.TempDir() + "/linear.model"
	saveModel(t, m1, path)
	s, ts := newTestServer(t, Config{CoalesceWindow: 200 * time.Microsecond}, map[string]string{"default": path})
	defer s.Close()

	probe := map[string]float64{"1": 0.4, "3": -1.2, "6": 0.9}
	probeRow := sparse.Row{Idx: []int32{0, 2, 5}, Val: []float64{0.4, -1.2, 0.9}}

	resp, data := postJSON(t, ts.URL+"/v1/predict", PredictRequest{Features: probe})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict on linear model: %d %s", resp.StatusCode, data)
	}
	pr := decodePredictions(t, data)
	if pr.Version != 1 || len(pr.Predictions) != 1 {
		t.Fatalf("round 1: version %d, %d predictions", pr.Version, len(pr.Predictions))
	}
	if want := m1.DecisionValue(probeRow); math.Float64bits(pr.Predictions[0].Decision) != math.Float64bits(want) {
		t.Fatalf("round 1 decision %v, want %v", pr.Predictions[0].Decision, want)
	}

	// Retrain with a different C and seed: a genuinely different hyperplane.
	m2 := trainLinear(t, 0.05, 99)
	if math.Float64bits(m2.DecisionValue(probeRow)) == math.Float64bits(m1.DecisionValue(probeRow)) {
		t.Fatal("retrained model predicts identically; test cannot tell versions apart")
	}
	saveModel(t, m2, path)
	if resp, data := postJSON(t, ts.URL+"/v1/models/default/reload", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %d %s", resp.StatusCode, data)
	}

	resp, data = postJSON(t, ts.URL+"/v1/predict", PredictRequest{Features: probe})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict after reload: %d %s", resp.StatusCode, data)
	}
	pr = decodePredictions(t, data)
	if pr.Version != 2 {
		t.Fatalf("after reload: version %d, want 2", pr.Version)
	}
	if want := m2.DecisionValue(probeRow); math.Float64bits(pr.Predictions[0].Decision) != math.Float64bits(want) {
		t.Fatalf("after reload decision %v, want %v", pr.Predictions[0].Decision, want)
	}
}

// TestCoalescedAnswerKeepsBatchSnapshot: a coalesced answer takes its
// decision, label and model_version from the snapshot its batch ran
// against, not from the one the handler resolved before queueing, nor
// from the one current when the handler writes the response. The
// pipeline's Source reloads once before taking the batch's snapshot and
// once after, so the three differ: the handler resolved version 1, the
// batch runs on version 2, and version 3 is live before the answer is
// delivered. (A reload from the batcher's OnBatch hook would come too
// late to test this: the hook runs after the answers are delivered, so
// it races the handler.)
func TestCoalescedAnswerKeepsBatchSnapshot(t *testing.T) {
	path := t.TempDir() + "/m.model"
	saveModel(t, testModel(0), path)
	s, ts := newTestServer(t, Config{CoalesceWindow: 200 * time.Microsecond}, map[string]string{"default": path})
	defer s.Close()

	models := []*model.Model{testModel(0.7), testModel(-0.9)}
	var srcErr error
	src := s.sourceFor("default")
	reload := func(m *model.Model) {
		if srcErr == nil {
			srcErr = m.Save(path)
		}
		if srcErr == nil {
			_, srcErr = s.reg.Reload("default")
		}
	}
	orig := s.pipelines["default"]
	orig.batch.Close()
	s.pipelines["default"] = &pipeline{shed: orig.shed, batch: batcher.New(func() (*model.Model, uint64) {
		reload(models[0])
		m, v := src()
		reload(models[1])
		return m, v
	}, batcher.Config{MaxWait: 200 * time.Microsecond, Gate: orig.shed})}

	resp, data := postJSON(t, ts.URL+"/v1/predict", PredictRequest{Features: map[string]float64{"1": 0.3, "2": -0.2}})
	if srcErr != nil {
		t.Fatal(srcErr)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: %d %s", resp.StatusCode, data)
	}
	if snap, _ := s.reg.Get("default"); snap.Version != 3 {
		t.Fatalf("registry at version %d after the batch, want 3", snap.Version)
	}
	pr := decodePredictions(t, data)
	row := sparse.Row{Idx: []int32{0, 1}, Val: []float64{0.3, -0.2}}
	want := models[0].DecisionValue(row)
	for _, m := range []*model.Model{testModel(0), models[1]} {
		if m.DecisionValue(row) == want {
			t.Fatal("two versions give the same decision; the test cannot tell them apart")
		}
	}
	if pr.Version != 2 || len(pr.Predictions) != 1 {
		t.Fatalf("answered version %d with %d predictions, want version 2 (the batch's snapshot) with 1", pr.Version, len(pr.Predictions))
	}
	got := pr.Predictions[0]
	if math.Float64bits(got.Decision) != math.Float64bits(want) || got.Label != math.Copysign(1, want) {
		t.Fatalf("answered decision %v label %v, want version 2's %v", got.Decision, got.Label, want)
	}
}

// TestRegistryPacksWithinBudget: a registry with a pack budget publishes
// packed snapshots whose predictions stay bit-identical to the plain model.
func TestRegistryPacksWithinBudget(t *testing.T) {
	m := testModel(0.4)
	path := t.TempDir() + "/m.model"
	saveModel(t, m, path)

	reg := NewRegistry()
	reg.SetPackBudget(model.DefaultPackBudget)
	if err := reg.Add("m", path); err != nil {
		t.Fatal(err)
	}
	snap, _ := reg.Get("m")
	if !snap.Packed {
		t.Fatal("small kernel model not packed despite budget")
	}
	if snap.Model.PackedBytes() == 0 {
		t.Fatal("packed snapshot reports zero packed bytes")
	}
	probe := sparse.Row{Idx: []int32{0, 1}, Val: []float64{0.3, -0.8}}
	plain, _ := LoadModel(path)
	if math.Float64bits(snap.Model.DecisionValue(probe)) != math.Float64bits(plain.DecisionValue(probe)) {
		t.Fatal("packed prediction differs from plain model")
	}

	// Reload under the budget stays packed; a zero budget disables packing.
	if snap2, err := reg.Reload("m"); err != nil || !snap2.Packed {
		t.Fatalf("reload: packed=%v err=%v", snap2 != nil && snap2.Packed, err)
	}
	reg.SetPackBudget(0)
	if snap3, err := reg.Reload("m"); err != nil || snap3.Packed {
		t.Fatalf("reload with packing disabled: packed=%v err=%v", snap3 != nil && snap3.Packed, err)
	}
}

// TestOverloadShedsExplicit429: with the batch gate held and a 2-deep
// queue, a third concurrent request must be rejected with an explicit 429
// — and the queued ones still answered once capacity frees up.
func TestOverloadShedsExplicit429(t *testing.T) {
	m := testModel(0.1)
	path := t.TempDir() + "/m.model"
	saveModel(t, m, path)
	s, ts := newTestServer(t, Config{
		CoalesceBatch:  1,
		CoalesceWindow: 100 * time.Microsecond,
		QueueDepth:     2,
		MaxInFlight:    1,
	}, map[string]string{"default": path})
	defer s.Close()

	p := s.pipelines["default"]
	// Hold the single batch-execution slot so admitted requests pile up.
	if err := p.shed.AcquireBatch(context.Background()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postJSON(t, ts.URL+"/v1/predict", PredictRequest{Features: map[string]float64{"1": 0.5}})
			codes[i] = resp.StatusCode
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.shed.QueueDepth() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if d := p.shed.QueueDepth(); d < 2 {
		t.Fatalf("queue depth %d, want 2 admitted and waiting", d)
	}
	resp, data := postJSON(t, ts.URL+"/v1/predict", PredictRequest{Features: map[string]float64{"1": 0.5}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request over a full queue: %d %s, want 429", resp.StatusCode, data)
	}
	p.shed.ReleaseBatch()
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("queued request %d answered %d, want 200", i, c)
		}
	}
	if _, shedCount := p.shed.Stats(); shedCount == 0 {
		t.Fatal("shedder counted no rejections")
	}
}
