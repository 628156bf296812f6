package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/sparse"
)

// testModel builds a small deterministic RBF model. beta shifts the
// decision boundary, which the hot-reload tests use to tell versions apart.
func testModel(beta float64) *model.Model {
	return &model.Model{
		Kernel:       kernel.Params{Type: kernel.Gaussian, Gamma: 1},
		C:            10,
		SV:           sparse.FromDense([][]float64{{-1, 0}, {1, 0.5}}),
		Coef:         []float64{-1, 1},
		Beta:         beta,
		TrainSamples: 10,
	}
}

func saveModel(t *testing.T, m *model.Model, path string) {
	t.Helper()
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
}

// newTestServer registers the given models and returns the server plus an
// httptest wrapper around its handler.
func newTestServer(t *testing.T, cfg Config, models map[string]string) (*Server, *httptest.Server) {
	t.Helper()
	reg := NewRegistry()
	for name, path := range models {
		if err := reg.Add(name, path); err != nil {
			t.Fatal(err)
		}
	}
	s := New(reg, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
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

func decodePredictions(t *testing.T, data []byte) PredictResponse {
	t.Helper()
	var pr PredictResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatalf("bad predict response %s: %v", data, err)
	}
	return pr
}

// TestPredictParityWithModel: a multi-row request (the direct path) and
// each of its rows posted alone (the coalesced path) answer with the
// decision, label and probability of the model itself, bit for bit, for
// every encoding and with the model served packed and unpacked.
func TestPredictParityWithModel(t *testing.T) {
	m := testModel(0.1)
	m.ProbA, m.ProbB, m.HasProb = -1.5, 0.25, true
	path := t.TempDir() + "/m.model"
	saveModel(t, m, path)
	m, err := model.Load(path) // the reference is the model as served
	if err != nil {
		t.Fatal(err)
	}

	probe := sparse.FromDense([][]float64{{0.7, 0.2}, {-1.3, 0.1}, {0, 0}})
	// One request per encoding, all against the same probe rows.
	requests := []PredictRequest{
		{Instances: []Instance{
			{Features: map[string]float64{"1": 0.7, "2": 0.2}},
			{Features: map[string]float64{"1": -1.3, "2": 0.1}},
			{Features: map[string]float64{"1": 0}}, // explicit zero == all-zero row
		}},
		{Instances: []Instance{
			{Libsvm: "1:0.7 2:0.2"},
			{Libsvm: "1:-1.3 2:0.1"},
			{Libsvm: "1:0"}, // explicit zero == all-zero row
		}},
	}
	check := func(name string, p Prediction, row sparse.Row) {
		t.Helper()
		wantDV := m.DecisionValue(row)
		if math.Float64bits(p.Decision) != math.Float64bits(wantDV) {
			t.Fatalf("%s: decision %v, want %v", name, p.Decision, wantDV)
		}
		if p.Label != m.Predict(row) {
			t.Fatalf("%s: label %v", name, p.Label)
		}
		wantP, _ := m.ProbabilityFromDecision(wantDV)
		if p.Probability == nil || math.Float64bits(*p.Probability) != math.Float64bits(wantP) {
			t.Fatalf("%s: probability %v, want %v", name, p.Probability, wantP)
		}
	}

	for _, packed := range []bool{false, true} {
		reg := NewRegistry()
		if packed {
			reg.SetPackBudget(model.DefaultPackBudget)
		}
		if err := reg.Add("default", path); err != nil {
			t.Fatal(err)
		}
		if snap, _ := reg.Get("default"); snap.Packed != packed {
			t.Fatalf("packed = %v, want %v", snap.Packed, packed)
		}
		s := New(reg, Config{})
		t.Cleanup(s.Close)
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close) // runs before s.Close
		for ri, req := range requests {
			resp, data := postJSON(t, ts.URL+"/v1/predict", req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("packed=%v request %d: status %d: %s", packed, ri, resp.StatusCode, data)
			}
			pr := decodePredictions(t, data)
			if pr.Model != "default" || len(pr.Predictions) != 3 {
				t.Fatalf("packed=%v request %d: response %+v", packed, ri, pr)
			}
			for i, p := range pr.Predictions {
				check(fmt.Sprintf("packed=%v request %d row %d", packed, ri, i), p, probe.RowView(i))
			}
			for i, inst := range req.Instances {
				resp, data := postJSON(t, ts.URL+"/v1/predict", PredictRequest{Features: inst.Features, Libsvm: inst.Libsvm})
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("packed=%v request %d row %d alone: status %d: %s", packed, ri, i, resp.StatusCode, data)
				}
				pr := decodePredictions(t, data)
				if len(pr.Predictions) != 1 {
					t.Fatalf("packed=%v request %d row %d alone: response %+v", packed, ri, i, pr)
				}
				check(fmt.Sprintf("packed=%v request %d row %d alone", packed, ri, i), pr.Predictions[0], probe.RowView(i))
			}
		}
	}
}

func TestPredictSingleTopLevel(t *testing.T) {
	m := testModel(0)
	path := t.TempDir() + "/m.model"
	saveModel(t, m, path)
	_, ts := newTestServer(t, Config{}, map[string]string{"default": path})

	resp, data := postJSON(t, ts.URL+"/v1/predict", PredictRequest{Features: map[string]float64{"1": 0.9}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	pr := decodePredictions(t, data)
	if len(pr.Predictions) != 1 {
		t.Fatalf("got %d predictions", len(pr.Predictions))
	}
	row := sparse.FromDense([][]float64{{0.9}}).RowView(0)
	if math.Abs(pr.Predictions[0].Decision-m.DecisionValue(row)) > 1e-12 {
		t.Fatalf("decision %v", pr.Predictions[0].Decision)
	}
	// Uncalibrated model: no probability field.
	if pr.Predictions[0].Probability != nil {
		t.Fatal("uncalibrated model returned a probability")
	}

	resp, data = postJSON(t, ts.URL+"/v1/predict", PredictRequest{Libsvm: "1:0.9"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("libsvm single: status %d: %s", resp.StatusCode, data)
	}
	pr2 := decodePredictions(t, data)
	if pr2.Predictions[0].Decision != pr.Predictions[0].Decision {
		t.Fatal("libsvm and features encodings disagree")
	}
}

func TestPredictTextPlainBody(t *testing.T) {
	m := testModel(0)
	path := t.TempDir() + "/m.model"
	saveModel(t, m, path)
	_, ts := newTestServer(t, Config{}, map[string]string{"default": path})

	// Labeled lines (as written by WriteLibsvm) must be accepted as-is.
	body := "+1 1:0.9 2:0.1\n# comment\n\n-1 1:-0.8\n"
	resp, err := http.Post(ts.URL+"/v1/predict?model=default", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	pr := decodePredictions(t, data)
	if len(pr.Predictions) != 2 {
		t.Fatalf("got %d predictions from 2 data lines", len(pr.Predictions))
	}
	probe := sparse.FromDense([][]float64{{0.9, 0.1}, {-0.8, 0}})
	for i, p := range pr.Predictions {
		if want := m.DecisionValue(probe.RowView(i)); math.Abs(p.Decision-want) > 1e-12 {
			t.Fatalf("row %d: decision %v, want %v", i, p.Decision, want)
		}
	}
}

func TestPredictErrors(t *testing.T) {
	path := t.TempDir() + "/m.model"
	saveModel(t, testModel(0), path)
	_, ts := newTestServer(t, Config{MaxBatch: 2}, map[string]string{"a": path, "b": path})

	cases := []struct {
		name string
		body string
		code int
	}{
		{"no instances", `{}`, http.StatusBadRequest},
		{"unknown model", `{"model":"nope","libsvm":"1:1"}`, http.StatusNotFound},
		{"ambiguous default", `{"libsvm":"1:1"}`, http.StatusNotFound},
		{"both single and batch", `{"libsvm":"1:1","instances":[{"libsvm":"1:1"}]}`, http.StatusBadRequest},
		{"both encodings in instance", `{"model":"a","instances":[{"libsvm":"1:1","features":{"1":1}}]}`, http.StatusBadRequest},
		{"bad feature index", `{"model":"a","features":{"zero":1}}`, http.StatusBadRequest},
		{"duplicate feature index", `{"model":"a","features":{"1":1,"01":2}}`, http.StatusBadRequest},
		{"bad libsvm row", `{"model":"a","libsvm":"1:1 junk"}`, http.StatusBadRequest},
		{"unknown field", `{"model":"a","rows":[[1,2]]}`, http.StatusBadRequest},
		{"not json", `hello`, http.StatusBadRequest},
		{"batch too large", `{"model":"a","instances":[{"libsvm":"1:1"},{"libsvm":"1:1"},{"libsvm":"1:1"}]}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.code, data)
		}
		var e map[string]string
		if err := json.Unmarshal(data, &e); err != nil || e["error"] == "" {
			t.Errorf("%s: error body %s", tc.name, data)
		}
	}
}

// TestPredictIndexBounds: a JSON feature key past the int32 index range
// must get a 400 naming the index. Cast to int32 it would wrap negative
// and panic the batcher goroutine, which has no recover, so the process
// would exit. The server keeps answering: the largest valid index scores
// like any column past the support vectors'.
func TestPredictIndexBounds(t *testing.T) {
	m := testModel(0)
	path := t.TempDir() + "/m.model"
	saveModel(t, m, path)
	_, ts := newTestServer(t, Config{}, map[string]string{"default": path})

	resp, data := postJSON(t, ts.URL+"/v1/predict", json.RawMessage(`{"features":{"2147483649":1}}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), "feature index 2147483649 exceeds the supported maximum") {
		t.Fatalf("error does not name the index: %s", data)
	}

	resp, data = postJSON(t, ts.URL+"/v1/predict", json.RawMessage(`{"features":{"2147483647":1}}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d after the rejected request: %s", resp.StatusCode, data)
	}
	pr := decodePredictions(t, data)
	want := m.DecisionValue(sparse.Row{Idx: []int32{math.MaxInt32 - 1}, Val: []float64{1}})
	if len(pr.Predictions) != 1 || math.Abs(pr.Predictions[0].Decision-want) > 1e-12 {
		t.Fatalf("predictions %+v, want one decision %v", pr.Predictions, want)
	}
}

func TestResolveSingleModelWithoutName(t *testing.T) {
	path := t.TempDir() + "/m.model"
	saveModel(t, testModel(0), path)
	_, ts := newTestServer(t, Config{}, map[string]string{"only": path})
	resp, data := postJSON(t, ts.URL+"/v1/predict", PredictRequest{Libsvm: "1:1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if pr := decodePredictions(t, data); pr.Model != "only" {
		t.Fatalf("resolved model %q, want \"only\"", pr.Model)
	}
}

func TestHealthzAndModels(t *testing.T) {
	path := t.TempDir() + "/m.model"
	m := testModel(0)
	m.ProbA, m.ProbB, m.HasProb = -1, 0, true
	saveModel(t, m, path)
	_, ts := newTestServer(t, Config{}, map[string]string{"default": path})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz["status"] != "ok" || hz["models"].(float64) != 1 {
		t.Fatalf("healthz = %v", hz)
	}

	// Serve one batch so the prediction counter is non-zero.
	postJSON(t, ts.URL+"/v1/predict", PredictRequest{Instances: []Instance{{Libsvm: "1:1"}, {Libsvm: "2:1"}}})

	resp, err = http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var ml struct{ Models []ModelInfo }
	if err := json.NewDecoder(resp.Body).Decode(&ml); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(ml.Models) != 1 {
		t.Fatalf("models = %+v", ml.Models)
	}
	info := ml.Models[0]
	if info.Name != "default" || info.NumSV != 2 || !info.Calibrated || info.Version != 1 || info.Predictions != 2 {
		t.Fatalf("model info = %+v", info)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	path := t.TempDir() + "/m.model"
	saveModel(t, testModel(0), path)
	_, ts := newTestServer(t, Config{}, map[string]string{"default": path})

	postJSON(t, ts.URL+"/v1/predict", PredictRequest{Instances: []Instance{{Libsvm: "1:1"}, {Libsvm: "1:2"}, {Libsvm: "1:3"}}})
	http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader("{}")) // a 400

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`svmserve_requests_total{path="/v1/predict",code="200"} 1`,
		`svmserve_requests_total{path="/v1/predict",code="400"} 1`,
		"# TYPE svmserve_request_duration_seconds histogram",
		"svmserve_request_duration_seconds_count 2",
		`svmserve_predict_batch_size_bucket{le="4"} 1`,
		`svmserve_model_predictions_total{model="default"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
}

func TestHotReloadUnderConcurrentTraffic(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/m.model"
	// The two versions differ in beta and in their Platt parameters, so an
	// answer mixing one version's decision with the other's probability or
	// model_version shows.
	versions := []*model.Model{testModel(0), testModel(5)}
	versions[0].ProbA, versions[0].ProbB, versions[0].HasProb = -1.5, 0.25, true
	versions[1].ProbA, versions[1].ProbB, versions[1].HasProb = -0.5, -2, true
	saveModel(t, versions[1], dir+"/v2.model")
	saveModel(t, versions[0], path)
	_, ts := newTestServer(t, Config{}, map[string]string{"default": path})

	// Hammer predict from several goroutines while the model file is
	// rewritten and reloaded; every response must be coherent (one
	// version's model_version, decision value and probability, never an
	// error, never a torn model).
	const goroutines = 8
	const perG = 30
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	row := sparse.FromDense([][]float64{{0.7, 0.2}}).RowView(0)
	type answer struct{ dv, prob float64 }
	var want [2]answer
	for v, p := range []string{path, dir + "/v2.model"} {
		m, err := model.Load(p)
		if err != nil {
			t.Fatal(err)
		}
		want[v].dv = m.DecisionValue(row)
		want[v].prob, _ = m.ProbabilityFromDecision(want[v].dv)
	}
	dvNew := want[1].dv
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				b, _ := json.Marshal(PredictRequest{Libsvm: "1:0.7 2:0.2"})
				resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(b))
				if err != nil {
					errs <- err
					return
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d: %s", resp.StatusCode, data)
					return
				}
				var pr PredictResponse
				if err := json.Unmarshal(data, &pr); err != nil {
					errs <- err
					return
				}
				if pr.Version != 1 && pr.Version != 2 {
					errs <- fmt.Errorf("model_version %d, want 1 or 2", pr.Version)
					return
				}
				p, w := pr.Predictions[0], want[pr.Version-1]
				if p.Probability == nil || math.Float64bits(p.Decision) != math.Float64bits(w.dv) ||
					math.Float64bits(*p.Probability) != math.Float64bits(w.prob) {
					errs <- fmt.Errorf("torn answer for version %d: %+v, want decision %v probability %v", pr.Version, p, w.dv, w.prob)
					return
				}
			}
		}()
	}

	// Mid-traffic: rewrite the file and reload.
	saveModel(t, versions[1], path)
	resp, err := http.Post(ts.URL+"/v1/models/default/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rl map[string]any
	json.NewDecoder(resp.Body).Decode(&rl)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rl["version"].(float64) != 2 {
		t.Fatalf("reload: %d %v", resp.StatusCode, rl)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// After the reload completes, fresh requests see the new model.
	resp2, data := postJSON(t, ts.URL+"/v1/predict", PredictRequest{Libsvm: "1:0.7 2:0.2"})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-reload status %d", resp2.StatusCode)
	}
	pr := decodePredictions(t, data)
	if pr.Version != 2 || math.Abs(pr.Predictions[0].Decision-dvNew) > 1e-12 {
		t.Fatalf("post-reload version %d decision %v, want version 2 decision %v",
			pr.Version, pr.Predictions[0].Decision, dvNew)
	}
}

func TestReloadFailureKeepsServing(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/m.model"
	saveModel(t, testModel(0), path)
	_, ts := newTestServer(t, Config{}, map[string]string{"default": path})

	// Corrupt the file on disk, then reload: 500, old snapshot stays live.
	if err := os.WriteFile(path, []byte("kernel_type warp\nSV\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/models/default/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("reload of corrupted file: status %d", resp.StatusCode)
	}
	resp2, data := postJSON(t, ts.URL+"/v1/predict", PredictRequest{Libsvm: "1:0.7"})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("predict after failed reload: %d %s", resp2.StatusCode, data)
	}
	if pr := decodePredictions(t, data); pr.Version != 1 {
		t.Fatalf("version %d after failed reload, want 1", pr.Version)
	}

	// Reloading an unregistered name is a 404.
	resp3, err := http.Post(ts.URL+"/v1/models/ghost/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("reload of unknown model: status %d", resp3.StatusCode)
	}
}

func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	path := t.TempDir() + "/m.model"
	saveModel(t, testModel(0), path)
	reg := NewRegistry()
	if err := reg.Add("default", path); err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{DrainTimeout: 5 * time.Second})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	// Launch in-flight batch requests, then cancel the context while they
	// run; every request must still complete with 200.
	const inflight = 6
	var wg sync.WaitGroup
	results := make(chan error, inflight)
	big := make([]Instance, 64)
	for i := range big {
		big[i] = Instance{Libsvm: fmt.Sprintf("1:%d 2:0.5", i)}
	}
	body, _ := json.Marshal(PredictRequest{Instances: big})
	for g := 0; g < inflight; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(base+"/v1/predict", "application/json", bytes.NewReader(body))
			if err != nil {
				results <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				results <- fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			results <- nil
		}()
	}
	time.Sleep(10 * time.Millisecond) // let the requests hit the handler
	cancel()
	wg.Wait()
	close(results)
	for err := range results {
		if err != nil {
			t.Error(err)
		}
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v after drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after context cancellation")
	}
	// The listener is closed: new connections must fail.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after shutdown")
	}
}

// TestDrainClosesSilentConnections: a client that connects and never sends
// a request must not hold the drain. net/http treats such a connection as
// busy for its first 5 s, longer than this DrainTimeout, so without the
// close the drain fails with a deadline error.
func TestDrainClosesSilentConnections(t *testing.T) {
	path := t.TempDir() + "/m.model"
	saveModel(t, testModel(0), path)
	reg := NewRegistry()
	if err := reg.Add("default", path); err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{DrainTimeout: 2 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()

	// A served request proves the server is up; the silent connection is
	// then accepted behind it.
	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	silent, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	time.Sleep(20 * time.Millisecond)

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v with a silent client connected", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after context cancellation")
	}
	// The server closed the silent connection.
	silent.SetReadDeadline(time.Now().Add(time.Second))
	if n, err := silent.Read(make([]byte, 1)); err == nil {
		t.Fatalf("silent connection still open after drain (read %d bytes)", n)
	}
}

func TestRegistryAddErrors(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Add("x", "/nonexistent/file.model"); err == nil {
		t.Fatal("missing file accepted")
	}
	path := t.TempDir() + "/m.model"
	saveModel(t, testModel(0), path)
	if err := reg.Add("", path); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := reg.Add("x", path); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("x", path); err == nil {
		t.Fatal("duplicate name accepted")
	}
	// Corrupted files are rejected at load time.
	bad := t.TempDir() + "/bad.model"
	os.WriteFile(bad, []byte("total_sv 5\nkernel_type rbf\ngamma 1\nC 1\nSV\n1 1:1\n"), 0o644)
	if err := reg.Add("bad", bad); err == nil {
		t.Fatal("corrupted model accepted at load time")
	}
}
