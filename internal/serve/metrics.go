package serve

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Hand-rolled Prometheus-text metrics (no client library; the repo is
// stdlib-only). Everything is atomics so the hot path never takes a lock:
// counters are atomic.Uint64 behind a sync.Map keyed by label value, and
// histogram buckets are fixed at construction.

// counterVec is a set of monotonic counters keyed by one or more label
// values (joined internally with \x00).
type counterVec struct {
	name, help string
	labels     []string
	m          sync.Map // joined label values -> *atomic.Uint64
}

func newCounterVec(name, help string, labels ...string) *counterVec {
	return &counterVec{name: name, help: help, labels: labels}
}

const labelSep = "\x00"

func (c *counterVec) add(n uint64, labelValues ...string) {
	key := strings.Join(labelValues, labelSep)
	v, ok := c.m.Load(key)
	if !ok {
		v, _ = c.m.LoadOrStore(key, new(atomic.Uint64))
	}
	v.(*atomic.Uint64).Add(n)
}

func (c *counterVec) get(labelValues ...string) uint64 {
	if v, ok := c.m.Load(strings.Join(labelValues, labelSep)); ok {
		return v.(*atomic.Uint64).Load()
	}
	return 0
}

func (c *counterVec) write(w io.Writer) {
	var keys []string
	c.m.Range(func(k, _ any) bool { keys = append(keys, k.(string)); return true })
	sort.Strings(keys)
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", c.name, c.help, c.name)
	for _, k := range keys {
		vals := strings.Split(k, labelSep)
		pairs := make([]string, len(c.labels))
		for i, l := range c.labels {
			pairs[i] = fmt.Sprintf("%s=%q", l, vals[i])
		}
		fmt.Fprintf(w, "%s{%s} %d\n", c.name, strings.Join(pairs, ","), c.get(vals...))
	}
}

// histogram is a fixed-bucket cumulative histogram with an atomically
// accumulated float sum (CAS on the bit pattern).
type histogram struct {
	name, help string
	bounds     []float64       // upper bounds, ascending; +Inf is implicit
	counts     []atomic.Uint64 // len(bounds)+1, last is the +Inf bucket
	count      atomic.Uint64
	sumBits    atomic.Uint64
}

func newHistogram(name, help string, bounds []float64) *histogram {
	return &histogram{name: name, help: help, bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

func (h *histogram) observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (h *histogram) write(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", h.name, h.help, h.name)
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.name, strconv.FormatFloat(b, 'g', -1, 64), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", h.name, math.Float64frombits(h.sumBits.Load()))
	fmt.Fprintf(w, "%s_count %d\n", h.name, h.count.Load())
}

// gaugeVec exposes instantaneous values read at scrape time from
// registered closures — the idiomatic shape for queue depths, which
// already live in the batcher's atomics and would race a mirrored copy.
type gaugeVec struct {
	name, help string
	labels     []string
	mu         sync.Mutex
	sources    map[string]func() float64 // joined label values -> reader
}

func newGaugeVec(name, help string, labels ...string) *gaugeVec {
	return &gaugeVec{name: name, help: help, labels: labels, sources: map[string]func() float64{}}
}

func (g *gaugeVec) register(fn func() float64, labelValues ...string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.sources[strings.Join(labelValues, labelSep)] = fn
}

func (g *gaugeVec) write(w io.Writer) {
	g.mu.Lock()
	keys := make([]string, 0, len(g.sources))
	for k := range g.sources {
		keys = append(keys, k)
	}
	fns := make([]func() float64, len(keys))
	sort.Strings(keys)
	for i, k := range keys {
		fns[i] = g.sources[k]
	}
	g.mu.Unlock()
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", g.name, g.help, g.name)
	for i, k := range keys {
		vals := strings.Split(k, labelSep)
		pairs := make([]string, len(g.labels))
		for j, l := range g.labels {
			pairs[j] = fmt.Sprintf("%s=%q", l, vals[j])
		}
		fmt.Fprintf(w, "%s{%s} %g\n", g.name, strings.Join(pairs, ","), fns[i]())
	}
}

// metrics aggregates everything /metrics exposes.
type metrics struct {
	requests    *counterVec // by "path code", e.g. "/v1/predict 200"
	latency     *histogram  // request duration, seconds
	batchSizes  *histogram  // rows per predict request
	predictions *counterVec // rows predicted, by model name
	reloads     *counterVec // successful reloads, by model name

	// Serving-pipeline metrics (coalescing, shedding).
	queueDepth   *gaugeVec   // outstanding rows, by model
	coalesced    *histogram  // rows per coalesced batch execution
	shed         *counterVec // rejected requests, by model and reason
	admitted     *counterVec // admitted single-row requests, by model
	queueWait    *histogram  // oldest-row queue wait per batch, seconds
	execTime     *histogram  // model evaluation time per batch, seconds
	packedModels *gaugeVec   // 1 if the live snapshot is packed, by model
	packedBytes  *gaugeVec   // packed layout size in bytes, by model
}

func newMetrics() *metrics {
	return &metrics{
		requests: newCounterVec("svmserve_requests_total",
			"HTTP requests by path and status code.", "path", "code"),
		latency: newHistogram("svmserve_request_duration_seconds",
			"Request latency in seconds.",
			[]float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}),
		batchSizes: newHistogram("svmserve_predict_batch_size",
			"Rows per predict request.",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096}),
		predictions: newCounterVec("svmserve_model_predictions_total",
			"Rows predicted per model.", "model"),
		reloads: newCounterVec("svmserve_model_reloads_total",
			"Successful model reloads per model.", "model"),
		queueDepth: newGaugeVec("svmserve_queue_depth",
			"Rows submitted and not yet answered, per model.", "model"),
		coalesced: newHistogram("svmserve_coalesced_batch_size",
			"Rows coalesced per batch execution.",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256}),
		shed: newCounterVec("svmserve_shed_total",
			"Requests rejected by admission control, by reason.", "model", "reason"),
		admitted: newCounterVec("svmserve_admitted_total",
			"Single-row requests admitted past load shedding.", "model"),
		queueWait: newHistogram("svmserve_batch_queue_wait_seconds",
			"Oldest-row queue wait per coalesced batch.",
			[]float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1}),
		execTime: newHistogram("svmserve_batch_exec_seconds",
			"Model evaluation time per coalesced batch.",
			[]float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25}),
		packedModels: newGaugeVec("svmserve_model_packed",
			"1 when the live snapshot carries the packed predict-time layout.", "model"),
		packedBytes: newGaugeVec("svmserve_model_packed_bytes",
			"Bytes held by the packed predict-time layout.", "model"),
	}
}

func (m *metrics) write(w io.Writer) {
	m.requests.write(w)
	m.latency.write(w)
	m.batchSizes.write(w)
	m.predictions.write(w)
	m.reloads.write(w)
	m.queueDepth.write(w)
	m.coalesced.write(w)
	m.shed.write(w)
	m.admitted.write(w)
	m.queueWait.write(w)
	m.execTime.write(w)
	m.packedModels.write(w)
	m.packedBytes.write(w)
}
