package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/serve/batcher"
	"repro/internal/serve/shed"
	"repro/internal/sparse"
)

// Config tunes the server. The zero value is usable.
type Config struct {
	// Workers bounds the prediction worker pool per request; <= 0 selects
	// GOMAXPROCS (see model.DecisionValues).
	Workers int
	// MaxBatch caps rows per predict request (default 4096).
	MaxBatch int
	// MaxBodyBytes caps the request body size (default 32 MiB).
	MaxBodyBytes int64
	// DrainTimeout bounds graceful shutdown (default 10s).
	DrainTimeout time.Duration

	// Serving-pipeline knobs. Single-row predict requests flow through a
	// per-model pipeline: load shedding (admission control) in front of a
	// coalescing batcher.

	// CoalesceWindow is how long a batch window stays open waiting for
	// co-riders (default 2ms; see batcher.Config.MaxWait).
	CoalesceWindow time.Duration
	// CoalesceBatch caps rows coalesced into one evaluation (default 32).
	CoalesceBatch int
	// QueueDepth bounds outstanding rows per model (default 1024).
	QueueDepth int
	// MaxInFlight bounds concurrently executing batches per model
	// (default 2).
	MaxInFlight int
	// RequestTimeout is the deadline applied to single-row requests that
	// arrive without one; the shedder rejects requests it cannot answer
	// inside their deadline. Zero leaves such requests unbounded.
	RequestTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 4096
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.CoalesceWindow <= 0 {
		c.CoalesceWindow = 2 * time.Millisecond
	}
	if c.CoalesceBatch <= 0 {
		c.CoalesceBatch = 32
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2
	}
	return c
}

// pipeline is the per-model serving stack: admission control in front of a
// coalescing batcher. The batcher resolves the registry entry per batch, so
// a hot-reload switches its next batch.
type pipeline struct {
	shed  *shed.Shedder
	batch *batcher.Batcher
}

// Server serves the models in a Registry over HTTP.
type Server struct {
	reg       *Registry
	cfg       Config
	met       *metrics
	start     time.Time
	pipelines map[string]*pipeline
}

// New builds a Server around an already-populated registry. The registry's
// model set must be final: each registered model gets its serving pipeline
// (shedder, coalescing batcher) built here. Call Close
// when done to drain the pipelines.
func New(reg *Registry, cfg Config) *Server {
	s := &Server{
		reg:       reg,
		cfg:       cfg.withDefaults(),
		met:       newMetrics(),
		start:     time.Now(),
		pipelines: make(map[string]*pipeline),
	}
	for _, name := range reg.Names() {
		s.pipelines[name] = s.newPipeline(name)
		s.registerModelGauges(name)
	}
	return s
}

func (s *Server) newPipeline(name string) *pipeline {
	sh := shed.New(shed.Config{
		MaxQueue:    s.cfg.QueueDepth,
		MaxInFlight: s.cfg.MaxInFlight,
	})
	b := batcher.New(s.sourceFor(name), batcher.Config{
		MaxBatch: s.cfg.CoalesceBatch,
		MaxWait:  s.cfg.CoalesceWindow,
		Queue:    s.cfg.QueueDepth,
		Workers:  s.cfg.Workers,
		Gate:     sh,
		OnBatch: func(size int, queueWait, exec time.Duration) {
			sh.ObserveBatch(size, exec)
			s.met.coalesced.observe(float64(size))
			s.met.queueWait.observe(queueWait.Seconds())
			s.met.execTime.observe(exec.Seconds())
		},
	})
	s.met.queueDepth.register(func() float64 { return float64(b.QueueDepth()) }, name)
	return &pipeline{shed: sh, batch: b}
}

// sourceFor resolves the current snapshot for name at batch-execution
// time, so every batch runs against exactly one published model version.
func (s *Server) sourceFor(name string) batcher.Source {
	return func() (*model.Model, uint64) {
		snap, ok := s.reg.Get(name)
		if !ok {
			return nil, 0
		}
		return snap.Model, snap.Version
	}
}

func (s *Server) registerModelGauges(name string) {
	s.met.packedModels.register(func() float64 {
		if snap, ok := s.reg.Get(name); ok && snap.Packed {
			return 1
		}
		return 0
	}, name)
	s.met.packedBytes.register(func() float64 {
		if snap, ok := s.reg.Get(name); ok {
			return float64(snap.Model.PackedBytes())
		}
		return 0
	}, name)
}

// Close drains every pipeline: queued predictions are answered, then the
// batchers stop. The server must not receive traffic after Close.
func (s *Server) Close() {
	for _, p := range s.pipelines {
		p.batch.Close()
	}
}

// Handler returns the routed HTTP handler:
//
//	GET  /healthz                    liveness + model count
//	GET  /metrics                    Prometheus text metrics
//	GET  /v1/models                  registered models and their stats
//	POST /v1/predict                 single/batch prediction (JSON or libsvm rows)
//	POST /v1/models/{name}/reload    atomic hot-reload from disk
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.handleMetrics) // not instrumented: scrapes shouldn't skew latency
	mux.HandleFunc("GET /v1/models", s.instrument("/v1/models", s.handleModels))
	mux.HandleFunc("POST /v1/predict", s.instrument("/v1/predict", s.handlePredict))
	mux.HandleFunc("POST /v1/models/{name}/reload", s.instrument("/v1/models/reload", s.handleReload))
	return mux
}

// Serve runs the handler on ln until ctx is cancelled, then shuts down
// gracefully: the listener closes, in-flight requests drain (bounded by
// DrainTimeout), the coalescing pipelines close, and Serve returns nil on
// a clean drain. Connections that have sent no request are closed shortly
// after the drain starts (see closeSilentConnsOnShutdown).
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{Handler: s.Handler()}
	closeSilentConnsOnShutdown(hs)
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			return fmt.Errorf("serve: drain: %w", err)
		}
		s.Close()
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}

// silentGrace is how long a connection may stay silent into a drain before
// it is closed; a request already on the wire has its headers read by then.
const silentGrace = 250 * time.Millisecond

// closeSilentConnsOnShutdown makes hs's Shutdown close, silentGrace after
// it starts, the connections that have not sent a request. net/http counts
// such a connection as busy for its first 5 s, so one client that connects
// and stays silent (an HTTP client's spare dial, a TCP health check) would
// hold the drain that long, and fail it when DrainTimeout is shorter. The
// connection carries no work, so closing it drops nothing.
func closeSilentConnsOnShutdown(hs *http.Server) {
	var mu sync.Mutex
	silent := map[net.Conn]struct{}{}
	hs.ConnState = func(c net.Conn, st http.ConnState) {
		mu.Lock()
		defer mu.Unlock()
		if st == http.StateNew {
			silent[c] = struct{}{}
		} else {
			delete(silent, c)
		}
	}
	// Shutdown runs this in its own goroutine once the listeners are closed,
	// so every connection has joined the set by the time the grace ends.
	hs.RegisterOnShutdown(func() {
		time.Sleep(silentGrace)
		mu.Lock()
		defer mu.Unlock()
		for c := range silent {
			c.Close()
		}
	})
}

// statusRecorder captures the response code for the request counter.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with request counting and the latency
// histogram, keyed by a stable path label (no per-model cardinality).
func (s *Server) instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		s.met.latency.observe(time.Since(t0).Seconds())
		s.met.requests.add(1, path, strconv.Itoa(rec.code))
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"models":         s.reg.Len(),
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.met.write(w)
}

// ModelInfo is one row of GET /v1/models.
type ModelInfo struct {
	Name         string  `json:"name"`
	Path         string  `json:"path"`
	Task         string  `json:"task"`
	Kernel       string  `json:"kernel"`
	NumSV        int     `json:"num_sv"`
	TrainSamples int     `json:"train_samples"`
	Calibrated   bool    `json:"calibrated"`
	Version      uint64  `json:"version"`
	LoadedAt     string  `json:"loaded_at"`
	Predictions  uint64  `json:"predictions"`
	SVFraction   float64 `json:"sv_fraction"`
	Packed       bool    `json:"packed"`
	PackedBytes  int64   `json:"packed_bytes,omitempty"`
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	names := s.reg.Names()
	infos := make([]ModelInfo, 0, len(names))
	for _, n := range names {
		snap, ok := s.reg.Get(n)
		if !ok {
			continue
		}
		m := snap.Model
		infos = append(infos, ModelInfo{
			Name:         n,
			Path:         snap.Path,
			Task:         string(m.TaskKind()),
			Kernel:       m.Kernel.String(),
			NumSV:        m.NumSV(),
			TrainSamples: m.TrainSamples,
			Calibrated:   m.HasProb,
			Version:      snap.Version,
			LoadedAt:     snap.LoadedAt.UTC().Format(time.RFC3339Nano),
			Predictions:  s.met.predictions.get(n),
			SVFraction:   m.SVFraction(),
			Packed:       snap.Packed,
			PackedBytes:  m.PackedBytes(),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"models": infos})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	snap, err := s.reg.Reload(name)
	if err != nil {
		code := http.StatusInternalServerError
		if _, ok := s.reg.Get(name); !ok {
			code = http.StatusNotFound
		}
		writeError(w, code, "%v", err)
		return
	}
	s.met.reloads.add(1, name)
	writeJSON(w, http.StatusOK, map[string]any{
		"model":     name,
		"task":      string(snap.Model.TaskKind()),
		"version":   snap.Version,
		"num_sv":    snap.Model.NumSV(),
		"loaded_at": snap.LoadedAt.UTC().Format(time.RFC3339Nano),
	})
}

// Instance is one sample in a predict request: either a sparse feature map
// (1-based indices as JSON keys) or a libsvm-formatted feature row.
type Instance struct {
	Features map[string]float64 `json:"features,omitempty"`
	Libsvm   string             `json:"libsvm,omitempty"`
}

// PredictRequest is the JSON body of POST /v1/predict. Single-sample
// requests put features/libsvm at the top level; batches use instances.
type PredictRequest struct {
	Model     string             `json:"model,omitempty"`
	Features  map[string]float64 `json:"features,omitempty"`
	Libsvm    string             `json:"libsvm,omitempty"`
	Instances []Instance         `json:"instances,omitempty"`
}

// Prediction is one row of a predict response.
type Prediction struct {
	Label       float64  `json:"label"`
	Decision    float64  `json:"decision_value"`
	Probability *float64 `json:"probability,omitempty"`
}

// PredictResponse is the JSON body answered by POST /v1/predict. Task tells
// the client how to read Label: a class for c_svc, the regression value for
// epsilon_svr, the inlier/outlier verdict for one_class.
type PredictResponse struct {
	Model       string       `json:"model"`
	Task        string       `json:"task"`
	Version     uint64       `json:"model_version"`
	Predictions []Prediction `json:"predictions"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	modelName, rows, err := s.decodePredict(r)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", s.cfg.MaxBodyBytes)
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(rows) == 0 {
		writeError(w, http.StatusBadRequest, "no instances in request")
		return
	}
	if len(rows) > s.cfg.MaxBatch {
		writeError(w, http.StatusRequestEntityTooLarge, "batch of %d rows exceeds max %d", len(rows), s.cfg.MaxBatch)
		return
	}
	name, snap, err := s.reg.Resolve(modelName)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}

	if p, ok := s.pipelines[name]; ok && len(rows) == 1 {
		s.predictCoalesced(w, r, name, p, rows[0])
		return
	}

	// Direct path: client-assembled batches evaluate in one call against
	// the snapshot grabbed above — a concurrent hot-reload publishes a new
	// pointer but cannot affect us. The shedder still bounds concurrent
	// evaluations so a flood of large batches cannot starve the coalesced
	// pipeline.
	if p, ok := s.pipelines[name]; ok {
		if err := p.shed.AcquireBatch(r.Context()); err != nil {
			s.met.shed.add(1, name, "batch_gate")
			writeOverload(w, err)
			return
		}
		defer p.shed.ReleaseBatch()
	}
	// The decoders hand over sorted rows with no repeated index, so they
	// are scored as they are, with no copy into a matrix.
	m := snap.Model
	dv := m.DecisionValuesRows(rows, s.cfg.Workers)
	preds := make([]Prediction, len(dv))
	for i, v := range dv {
		preds[i] = prediction(m, v)
	}
	s.met.batchSizes.observe(float64(len(dv)))
	s.met.predictions.add(uint64(len(dv)), name)
	writeJSON(w, http.StatusOK, PredictResponse{Model: name, Task: string(m.TaskKind()), Version: snap.Version, Predictions: preds})
}

// prediction is the one mapping from a decision value to an answer, made
// with the model that computed the value: the label is the regression
// value itself for SVR and the sign for classification and one-class
// verdicts; the probability is the model's Platt sigmoid, when it has one.
func prediction(m *model.Model, v float64) Prediction {
	p := Prediction{Label: v, Decision: v}
	if m.TaskKind() != model.TaskSVR {
		p.Label = -1
		if v >= 0 {
			p.Label = 1
		}
	}
	if prob, ok := m.ProbabilityFromDecision(v); ok {
		p.Probability = &prob
	}
	return p
}

// predictCoalesced answers one row through the serving pipeline:
// admission control, then the coalescing batcher. The answer, its task
// and its model_version all come from the snapshot the batch ran against.
func (s *Server) predictCoalesced(w http.ResponseWriter, r *http.Request, name string, p *pipeline, row sparse.Row) {
	ctx := r.Context()
	if _, has := ctx.Deadline(); !has && s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	release, err := p.shed.Admit(ctx)
	if err != nil {
		s.met.shed.add(1, name, overloadReason(err))
		writeOverload(w, err)
		return
	}
	defer release()
	s.met.admitted.add(1, name)

	res, err := p.batch.Predict(ctx, row)
	if err != nil {
		if errors.Is(err, batcher.ErrQueueFull) {
			s.met.shed.add(1, name, "queue_full")
		}
		writeOverload(w, err)
		return
	}
	s.met.batchSizes.observe(1)
	s.met.predictions.add(1, name)
	writeJSON(w, http.StatusOK, PredictResponse{Model: name, Task: string(res.Model.TaskKind()), Version: res.Version,
		Predictions: []Prediction{prediction(res.Model, res.Decision)}})
}

func overloadReason(err error) string {
	var ov *shed.Overload
	if errors.As(err, &ov) {
		return ov.Reason
	}
	return "other"
}

// writeOverload maps pipeline errors to HTTP: explicit 429s for shedding
// (with a Retry-After hint when the shedder has one), 504 for deadlines,
// 503 for a draining server. Nothing is dropped without a response.
func writeOverload(w http.ResponseWriter, err error) {
	var ov *shed.Overload
	switch {
	case errors.As(err, &ov):
		if ov.RetryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(ov.RetryAfter.Seconds()))))
		}
		writeError(w, http.StatusTooManyRequests, "overloaded (%s): %v", ov.Reason, err)
	case errors.Is(err, batcher.ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "%v", err)
	case errors.Is(err, batcher.ErrClosed), errors.Is(err, batcher.ErrNoModel):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	}
}

// decodePredict turns a request body into feature rows. JSON bodies use
// PredictRequest; text/plain (or application/x-libsvm) bodies carry one
// libsvm feature row per line, with an optional leading label that is
// ignored (so saved test files can be POSTed as-is). The model may then
// only be named via the ?model query parameter.
func (s *Server) decodePredict(r *http.Request) (string, []sparse.Row, error) {
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	ct = strings.TrimSpace(ct)
	if ct == "text/plain" || ct == "application/x-libsvm" {
		rows, err := decodeLibsvmBody(r)
		return r.URL.Query().Get("model"), rows, err
	}
	var req PredictRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return "", nil, fmt.Errorf("decode request: %w", err)
	}
	if req.Model == "" {
		req.Model = r.URL.Query().Get("model")
	}
	single := req.Features != nil || req.Libsvm != ""
	if single && len(req.Instances) > 0 {
		return "", nil, errors.New("use either top-level features/libsvm or instances, not both")
	}
	if single {
		req.Instances = []Instance{{Features: req.Features, Libsvm: req.Libsvm}}
	}
	rows := make([]sparse.Row, 0, len(req.Instances))
	for i, inst := range req.Instances {
		row, err := decodeInstance(inst)
		if err != nil {
			return "", nil, fmt.Errorf("instance %d: %w", i, err)
		}
		rows = append(rows, row)
	}
	return req.Model, rows, nil
}

func decodeInstance(inst Instance) (sparse.Row, error) {
	if inst.Features != nil && inst.Libsvm != "" {
		return sparse.Row{}, errors.New("has both features and libsvm")
	}
	if inst.Libsvm != "" {
		return dataset.ParseRow(inst.Libsvm)
	}
	if inst.Features == nil {
		return sparse.Row{}, errors.New("has neither features nor libsvm")
	}
	// JSON feature maps use 1-based indices like the libsvm format; order
	// is undefined in JSON, so sort before building the row.
	idx := make([]int, 0, len(inst.Features))
	byIdx := make(map[int]float64, len(inst.Features))
	for k, v := range inst.Features {
		i, err := dataset.FeatureIndex(k)
		if err != nil {
			return sparse.Row{}, err
		}
		if _, dup := byIdx[i]; dup {
			// Distinct keys such as "1" and "01" name the same feature.
			return sparse.Row{}, fmt.Errorf("duplicate feature index %d", i)
		}
		idx = append(idx, i)
		byIdx[i] = v
	}
	sort.Ints(idx)
	var row sparse.Row
	for _, i := range idx {
		row.Idx = append(row.Idx, int32(i-1))
		row.Val = append(row.Val, byIdx[i])
	}
	return row, nil
}

func decodeLibsvmBody(r *http.Request) ([]sparse.Row, error) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, err
	}
	var rows []sparse.Row
	for lineNo, line := range strings.Split(string(body), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Tolerate a leading label so saved libsvm test files POST as-is.
		fields := strings.Fields(line)
		if len(fields) > 0 && !strings.Contains(fields[0], ":") {
			line = strings.Join(fields[1:], " ")
		}
		row, err := dataset.ParseRow(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo+1, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
