package dcsvm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/serve"
	"repro/internal/smo"
	"repro/internal/solver"
	"repro/internal/sparse"
)

func blobOpts(ds *dataset.Dataset) solver.Options {
	return solver.Options{C: ds.C, Seed: 11, DC: solver.DCOptions{Clusters: 4}}
}

// TestDCAccuracyParity: divide-and-conquer with polish must match the exact
// full solve within the acceptance envelope (0.5 accuracy points) on held-out
// data, for both sub-solver engines and for kernel-space clustering.
func TestDCAccuracyParity(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.5)
	exact, _, err := core.TrainParallel(ds.X, ds.Y, 1, core.Config{
		Kernel: testKernel(ds), C: ds.C,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := exact.Evaluate(ds.TestX, ds.TestY)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		mut  func(*solver.Options)
	}{
		{"core-subsolver", func(o *solver.Options) {}},
		{"smo-subsolver", func(o *solver.Options) { o.DC.SubSolver = "smo" }},
		{"kernel-space", func(o *solver.Options) { o.DC.KernelSpace = true }},
		{"two-level", func(o *solver.Options) { o.DC.Clusters = 8; o.DC.Levels = 2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := blobOpts(ds)
			tc.mut(&opts)
			m, st, err := Train(ds.X, ds.Y, testKernel(ds), opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.Evaluate(ds.TestX, ds.TestY)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got.Accuracy-ref.Accuracy) > 0.5 {
				t.Fatalf("dc accuracy %.2f%%, exact %.2f%% (gap > 0.5)", got.Accuracy, ref.Accuracy)
			}
			if !st.Converged {
				t.Fatal("polish did not converge")
			}
			if m.TrainSamples != ds.X.Rows() {
				t.Fatalf("TrainSamples = %d, want %d", m.TrainSamples, ds.X.Rows())
			}
			if len(st.Levels) == 0 {
				t.Fatalf("stats not populated: %+v", st)
			}
		})
	}
}

// TestDCWarmStartCheapensPolish: the whole point of coalescing — the
// warm-started polish must need far fewer iterations than a cold solve of
// the same full problem.
func TestDCWarmStartCheapensPolish(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.5)
	cold, err := smo.Train(ds.X, ds.Y, smo.Config{
		Kernel: testKernel(ds), C: ds.C, Shrinking: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := Train(ds.X, ds.Y, testKernel(ds), blobOpts(ds))
	if err != nil {
		t.Fatal(err)
	}
	if st.CoalescedSVs == 0 {
		t.Fatal("no support vectors coalesced")
	}
	if st.PolishIterations > cold.Iterations/2 {
		t.Fatalf("polish took %d iterations vs %d cold — warm start ineffective",
			st.PolishIterations, cold.Iterations)
	}
}

func TestDCDeterministic(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.25)
	opts := blobOpts(ds)
	a, _, err := Train(ds.X, ds.Y, testKernel(ds), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Train(ds.X, ds.Y, testKernel(ds), opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumSV() != b.NumSV() || a.Beta != b.Beta {
		t.Fatalf("same seed gave different models: %d/%v SVs/beta vs %d/%v",
			a.NumSV(), a.Beta, b.NumSV(), b.Beta)
	}
	for i := range a.Coef {
		if a.Coef[i] != b.Coef[i] {
			t.Fatalf("Coef[%d] differs across identical runs", i)
		}
	}
}

// TestDCEarlyStop: capping the polish bounds the stitch cost yet still
// yields a usable model — the polish's gradient reconstruction from the
// coalesced warm start does most of the work.
func TestDCEarlyStop(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.5)
	opts := blobOpts(ds)
	opts.DC.PolishMaxIter = 50
	m, st, err := Train(ds.X, ds.Y, testKernel(ds), opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.PolishIterations > 50 {
		t.Fatalf("PolishMaxIter=50 but polish ran %d iterations", st.PolishIterations)
	}
	got, err := m.Evaluate(ds.TestX, ds.TestY)
	if err != nil {
		t.Fatal(err)
	}
	// The early-stop model trades exactness for speed; on clean blobs it
	// should still classify well.
	if got.Accuracy < 90 {
		t.Fatalf("early-stop accuracy %.2f%%, want >= 90%%", got.Accuracy)
	}
	if m.TrainSamples != ds.X.Rows() {
		t.Fatalf("TrainSamples = %d, want %d", m.TrainSamples, ds.X.Rows())
	}
}

func TestDCValidation(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.1)
	kp, good := testKernel(ds), blobOpts(ds)

	bad := good
	bad.C = 0
	if _, _, err := Train(ds.X, ds.Y, kp, bad); err == nil {
		t.Error("C=0 accepted")
	}

	bad = good
	bad.DC.SubSolver = "quantum"
	if _, _, err := Train(ds.X, ds.Y, kp, bad); err == nil {
		t.Error("unknown sub-solver accepted")
	}

	bad = good
	bad.Heuristic = "Clairvoyant"
	if _, _, err := Train(ds.X, ds.Y, kp, bad); err == nil {
		t.Error("unknown heuristic accepted")
	}

	if _, _, err := Train(ds.X, ds.Y, kernel.Params{Type: kernel.Gaussian, Gamma: -1}, good); err == nil {
		t.Error("invalid kernel accepted")
	}

	y := append([]float64(nil), ds.Y...)
	y[0] = 3
	if _, _, err := Train(ds.X, y, kp, good); err == nil {
		t.Error("non-±1 label accepted")
	}

	ones := make([]float64, ds.X.Rows())
	for i := range ones {
		ones[i] = 1
	}
	if _, _, err := Train(ds.X, ones, kp, good); err == nil {
		t.Error("single-class training set accepted")
	}

	if _, _, err := Train(ds.X, ds.Y[:5], kp, good); err == nil {
		t.Error("label/sample length mismatch accepted")
	}

	tiny := sparse.FromDense([][]float64{{1}})
	if _, _, err := Train(tiny, []float64{1}, kp, good); err == nil {
		t.Error("single-sample training set accepted")
	}
}

func TestWarmStartAlpha(t *testing.T) {
	y := []float64{1, 1, -1, -1, -1}
	c := 10.0
	out := warmStartAlpha([]float64{10, 3.7, 10, 10, 0.2}, y, c)
	// Free alphas (3.7, 0.2) are dropped; the bound ones survive and the
	// heavier side (two at C vs one) is scaled down to balance.
	if out[1] != 0 || out[4] != 0 {
		t.Fatalf("free alphas kept: %v", out)
	}
	if out[0] != c {
		t.Fatalf("lighter-side bound alpha rescaled: %v", out)
	}
	var eq float64
	for i := range out {
		eq += out[i] * y[i]
	}
	if math.Abs(eq) > 1e-12 {
		t.Fatalf("residual %v", eq)
	}

	// No at-bound alphas at all degenerates to a cold start.
	cold := warmStartAlpha([]float64{1, 2, 3, 0, 1}, y, c)
	for i, a := range cold {
		if a != 0 {
			t.Fatalf("free-only projection kept alpha[%d] = %v", i, a)
		}
	}
}

func TestBalanceAlpha(t *testing.T) {
	y := []float64{1, 1, -1, -1}
	out := balanceAlpha([]float64{2, 2, 1, 0}, y, 10)
	var eq float64
	for i := range out {
		eq += out[i] * y[i]
		if out[i] < 0 || out[i] > 10 {
			t.Fatalf("alpha[%d] = %v outside box", i, out[i])
		}
	}
	if math.Abs(eq) > 1e-12 {
		t.Fatalf("balanced residual %v", eq)
	}
	if out[2] != 1 {
		t.Fatalf("lighter side rescaled: %v", out)
	}

	// One-sided mass must balance to all zeros (a cold start).
	zeros := balanceAlpha([]float64{2, 2, 0, 0}, y, 10)
	for i, a := range zeros {
		if a != 0 {
			t.Fatalf("one-sided balance kept alpha[%d] = %v", i, a)
		}
	}

	// Out-of-box inputs are clamped before balancing.
	clamped := balanceAlpha([]float64{20, -1, 3, 0}, y, 10)
	eq = 0
	for i := range clamped {
		eq += clamped[i] * y[i]
		if clamped[i] < 0 || clamped[i] > 10 {
			t.Fatalf("clamped alpha[%d] = %v outside box", i, clamped[i])
		}
	}
	if math.Abs(eq) > 1e-12 {
		t.Fatalf("clamped residual %v", eq)
	}
}

// TestDCModelServes: acceptance criterion — a dc-trained model round-trips
// through save/load and serves predictions via the svmserve handler.
func TestDCModelServes(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.25)
	m, _, err := Train(ds.X, ds.Y, testKernel(ds), blobOpts(ds))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dc.model")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := serve.LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumSV() != m.NumSV() {
		t.Fatalf("loaded model has %d SVs, trained %d", loaded.NumSV(), m.NumSV())
	}
	if math.Abs(loaded.Beta-m.Beta) > 1e-9 {
		t.Fatalf("loaded beta %v, trained %v", loaded.Beta, m.Beta)
	}

	reg := serve.NewRegistry()
	if err := reg.Add("dc", path); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.New(reg, serve.Config{}).Handler())
	defer ts.Close()

	// Every served prediction must match the in-memory model on test rows.
	for i := 0; i < 25; i++ {
		row := ds.TestX.RowView(i)
		var libsvm string
		for k, c := range row.Idx {
			libsvm += fmt.Sprintf("%d:%v ", c+1, row.Val[k])
		}
		resp, body := postJSON(t, ts.URL+"/v1/predict", serve.PredictRequest{
			Model:  "dc",
			Libsvm: libsvm,
		})
		if resp.StatusCode != 200 {
			t.Fatalf("predict row %d: status %d: %s", i, resp.StatusCode, body)
		}
		pr := decodePredict(t, body)
		if len(pr.Predictions) != 1 {
			t.Fatalf("predict row %d: %d predictions", i, len(pr.Predictions))
		}
		if want := m.Predict(row); pr.Predictions[0].Label != want {
			t.Fatalf("served label %v, local predict %v (row %d)",
				pr.Predictions[0].Label, want, i)
		}
	}
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func decodePredict(t *testing.T, data []byte) serve.PredictResponse {
	t.Helper()
	var pr serve.PredictResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatalf("decode predict response: %v (%s)", err, data)
	}
	return pr
}
