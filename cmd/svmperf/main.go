// Command svmperf is the repository's benchmark: four seeded workloads that
// each stress different layers of the system, every end-to-end metric
// printed by name and unit, every output checked for correctness, and a
// traced mode that reports per-layer numbers. README.md describes the
// workloads, the metrics and how to compare two sets of runs.
//
//	svmperf --workload paper-codrna --seed 1 --seconds 20 --trace 0
//	svmperf -compare base.jsonl head.jsonl
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}},
// with the end-to-end metrics when --trace is 0 and the per-layer metrics
// when it is 1. -out appends a fuller record (environment, per-repeat
// samples, quartiles) to a JSON-lines file, which -compare reads.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is what one invocation was asked to do.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64
	tmp      string
	out      string
	spans    string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("svmperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed: permutes the training rows, seeds the linear solver and orders the served requests")
	fs.Float64Var(&cfg.seconds, "seconds", 25, "length of the measured phase of each workload")
	fs.IntVar(&traceFlag, "trace", 0, "0 reports end-to-end metrics; 1 records spans and reports per-layer metrics")
	fs.Float64Var(&cfg.scale, "scale", 1, "multiplies every dataset size")
	fs.StringVar(&cfg.tmp, "tmp", os.TempDir(), "directory for the run's scratch files")
	fs.StringVar(&cfg.out, "out", "", "append one JSON record per workload run to this file")
	fs.StringVar(&cfg.spans, "spans", "", "with -trace 1, write the recorded spans to this JSON file")
	compare := fs.Bool("compare", false, "compare two -out files: svmperf -compare base.jsonl head.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "svmperf: -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "svmperf: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "svmperf: -trace must be 0 or 1")
		return 2
	}
	cfg.trace = traceFlag == 1
	if cfg.seconds <= 0 || cfg.scale <= 0 {
		fmt.Fprintln(stderr, "svmperf: -seconds and -scale must be positive")
		return 2
	}
	if p, n := runtime.GOMAXPROCS(0), runtime.NumCPU(); p > n {
		fmt.Fprintf(stderr, "svmperf: GOMAXPROCS=%d exceeds the %d usable CPUs; timings would measure the scheduler\n", p, n)
		return 2
	}
	var todo []workload
	for _, w := range workloads {
		if cfg.workload == "all" || cfg.workload == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(stderr, "svmperf: unknown workload %q (have %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}

	env := readEnv(cfg)
	fmt.Fprintf(stdout, "# %s\n", env)
	code := 0
	var allSpans []span
	for _, w := range todo {
		res, spans, err := runWorkload(w, cfg, env)
		if err != nil {
			fmt.Fprintf(stderr, "svmperf: %s: %v\n", w.name, err)
			return 1
		}
		allSpans = append(allSpans, spans...)
		res.print(stdout)
		if cfg.out != "" {
			if err := appendRecord(cfg.out, res); err != nil {
				fmt.Fprintf(stderr, "svmperf: %v\n", err)
				return 1
			}
		}
		if !res.Correct {
			code = 1
		}
	}
	if cfg.trace && cfg.spans != "" {
		if err := writeSpans(cfg.spans, allSpans); err != nil {
			fmt.Fprintf(stderr, "svmperf: %v\n", err)
			return 1
		}
	}
	return code
}

// environment is recorded with every result so two result sets can be
// checked for comparability.
type environment struct {
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Seconds    float64 `json:"seconds"`
}

func (e environment) String() string {
	return fmt.Sprintf("%s GOMAXPROCS=%d nproc=%d cpu=%q commit=%s seed=%d scale=%g seconds=%g",
		e.Go, e.GOMAXPROCS, e.NumCPU, e.CPU, e.Commit, e.Seed, e.Scale, e.Seconds)
}

func readEnv(cfg config) environment {
	e := environment{
		Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPU: "unknown", Commit: "unknown", Seed: cfg.seed, Scale: cfg.scale, Seconds: cfg.seconds,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			e.Commit = rev + dirty
		}
	}
	return e
}

// value is one reported metric. Samples and quartiles are kept for the -out
// record; the printed line carries value and unit only.
type value struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Q1      *float64  `json:"q1,omitempty"`
	Q3      *float64  `json:"q3,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

// result is one workload run.
type result struct {
	Workload   string           `json:"workload"`
	Trace      bool             `json:"trace"`
	Correct    bool             `json:"correct"`
	Attempted  int              `json:"attempted"`
	Failed     int              `json:"failed"`
	Problems   []string         `json:"problems,omitempty"`
	Metrics    map[string]value `json:"metrics"`
	Speed      []speed          `json:"speed,omitempty"` // probe reading before every timed round
	SetupSpeed []speed          `json:"setup_speed,omitempty"`
	Env        environment      `json:"env"`
}

// print writes a human-readable table, then the one-line JSON object the
// benchmark contract specifies as the last line.
func (r *result) print(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# workload %s (trace=%v): correct=%v attempted=%d failed=%d\n",
		r.Workload, r.Trace, r.Correct, r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "#   FAIL %s\n", p)
	}
	for _, n := range names {
		v := r.Metrics[n]
		fmt.Fprintf(w, "#   %-34s %14.6g %s\n", n, v.Value, v.Unit)
	}
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]vu{}}
	for n, v := range r.Metrics {
		line.Metrics[n] = vu{v.Value, v.Unit}
	}
	b, _ := json.Marshal(line) // a map of finite floats always marshals
	fmt.Fprintf(w, "%s\n", b)
}

func appendRecord(path string, r *result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// workload is one benchmark input set. setup builds everything the
// measured phase needs from the seed; it runs at least setups times and the
// last instance is measured. computeWeight is the weight of the probe's
// compute loop in the speed factor its timed calls are divided by (see
// measure.go).
type workload struct {
	name          string
	why           string
	setup         func(r *runCtx) (instance, error)
	computeWeight float64
}

// instance is a set-up workload.
type instance interface {
	// measure runs the timed phase for budget and records samples.
	measure(r *runCtx, budget time.Duration) error
	// verify runs the correctness gates, outside every timed section.
	verify(r *runCtx)
	// report fills the end-to-end metrics, and with tracing the per-layer
	// ones, from what measure and verify recorded.
	report(r *runCtx)
	close()
}

var workloads = []workload{
	{"paper-codrna", "the paper's comparison: tiny dense rows, so working-set selection and mpi collectives dominate and the whole Gram matrix fits the cache", setupCodrna, 1},
	{"kernel-cache-mnist38", "784-dim rows with a kernel cache that holds a fraction of the rows: row fills, LRU hits and evictions do the work; no mpi", setupCache, 0.75},
	{"ooc-realsim", "sparse text trained out of core with a resident budget of a quarter of the data: parse, spill and the block LRU dominate; kernel and cache untouched", setupOOC, 0.5},
	// Serving latencies are not speed-adjusted; the weight only sets the
	// reported speed.factor.
	{"serve-mnist38", "open-loop traffic through the HTTP handler in process: decode, shedding, coalescing and packed kernel sums; training bypassed", setupServe, 0.5},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// runCtx is the state of one workload run.
type runCtx struct {
	cfg        config
	dir        string // scratch directory, removed when the run ends
	tr         *tracer
	setup      int // the open "setup" span, parent of the set-up steps' spans
	ctx        context.Context
	speed      []speed // probe reading before every timed round or rate step
	setupSpeed []speed // probe reading before every set-up
	// computeWeight is the workload's probe weight for its timed calls.
	computeWeight float64

	e2e      map[string]value
	layer    map[string]float64
	retained float64 // largest live heap after a forced collection, MiB

	attempted, failed, wrong int
	problems                 []string
}

// check counts one operation, failed when err is non-nil: a request the
// server refused or timed out.
func (r *runCtx) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.note(err)
	}
}

// verify counts one output check, failed and wrong when err is non-nil: an
// optimum the oracle rejects, a served decision that differs from the
// model's. Any wrong output makes the run incorrect.
func (r *runCtx) verify(err error) {
	r.check(err)
	if err != nil {
		r.wrong++
	}
}

// collect runs a full collection and records the live heap it leaves: the
// memory the workload keeps between calls (data, models, caches that
// outlive a call, the server). That is peak_heap_mib. The peak sampled
// while calls run is reported per layer only: with a gigabyte a second of
// short-lived garbage, what a collection finds live depends on how long it
// took to mark, and it moved between 15 and 21 MiB across runs of one
// workload.
func (r *runCtx) collect() {
	runtime.GC()
	r.retained = max(r.retained, liveHeap())
}

func (r *runCtx) note(err error) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, err.Error())
	}
}

// setTime records a speed-adjusted end-to-end time: the mean of raw samples
// over the mean factor, compute loop weighted by w, of the speeds they ran
// under. The record keeps the raw samples; its quartiles are theirs,
// adjusted the same way.
func (r *runCtx) setTime(name string, raw []float64, speeds []speed, w float64) {
	f := meanFactor(speeds, w)
	q1, _, q3 := quartiles(raw)
	q1, q3 = q1/f, q3/f
	r.e2e[name] = value{Value: mean(raw) / f, Q1: &q1, Q3: &q3, Samples: raw}
}

// setMedian records an end-to-end metric as the median of its samples;
// the record keeps their quartiles.
func (r *runCtx) setMedian(name string, samples []float64) {
	q1, q2, q3 := quartiles(samples)
	r.e2e[name] = value{Value: q2, Q1: &q1, Q3: &q3}
}

// setups is how many times a run sets its workload up, at least; setup_s is
// their speed-adjusted mean. The smoke test lowers it.
var setups = 5

// setupComputeWeight is the probe weight set-up times are adjusted with.
const setupComputeWeight = 0.5

// minSetupTime is how long each of the setups is given at least: cheap
// set-ups (a few milliseconds) repeat until their total reaches
// setups × minSetupTime, so setup_s is not one timer tick.
const minSetupTime = 200 * time.Millisecond

func runWorkload(w workload, cfg config, env environment) (*result, []span, error) {
	dir, err := os.MkdirTemp(cfg.tmp, "svmperf-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	r := &runCtx{
		cfg: cfg, dir: dir, tr: newTracer(w.name, cfg.trace), ctx: context.Background(),
		computeWeight: w.computeWeight, e2e: map[string]value{}, layer: map[string]float64{},
	}

	// Set up repeatedly; the last instance is the one measured.
	var inst instance
	var setupS []float64
	var setupSpeed []speed
	start := time.Now()
	for i := 0; i < setups || time.Since(start) < time.Duration(setups)*minSetupTime; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		setupSpeed = append(setupSpeed, probeSpeed())
		r.setup = r.tr.begin("setup", 0)
		t := time.Now()
		inst, err = w.setup(r)
		d := time.Since(t)
		r.tr.end(r.setup)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, d.Seconds())
	}
	defer inst.close()
	r.setTime("setup_s", setupS, setupSpeed, setupComputeWeight)
	r.setupSpeed = setupSpeed

	// The heap sampler and the collector's counters feed per-layer metrics
	// only, so the untraced run, whose times are the end-to-end metrics, runs
	// without them.
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		gc0, stopHeap := readGC(), heapSampler()
		err = inst.measure(r, budget)
		r.layer["heap.peak_live_mib"] = stopHeap()
		gc1 := readGC()
		r.layer["gc.cycles"] = float64(gc1.auto - gc0.auto)
		r.layer["gc.pause_ms"] = ms(gc1.pause - gc0.pause)
	} else {
		err = inst.measure(r, budget)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("measure: %w", err)
	}
	r.e2e["peak_heap_mib"] = value{Value: r.retained}

	id := r.tr.begin("verify", 0)
	inst.verify(r)
	r.tr.end(id)
	inst.report(r)
	r.layer["speed.factor"] = meanFactor(r.speed, r.computeWeight)

	res := &result{
		Workload: w.name, Trace: cfg.trace, Attempted: r.attempted, Failed: r.failed,
		Correct: r.wrong == 0 && r.attempted > 0, Problems: r.problems,
		Metrics: map[string]value{}, Speed: r.speed, SetupSpeed: r.setupSpeed, Env: env,
	}
	if cfg.trace {
		spans := r.tr.snapshot()
		r.layer["trace.spans"] = float64(len(spans))
		self := selfTimes(spans)
		var roundTime time.Duration
		for _, s := range spans {
			if s.Name == "round" || s.Name == "serve.step" {
				roundTime += s.dur()
			}
		}
		if roundTime > 0 {
			r.layer["trace.glue_pct"] = 100 * float64(self["round"]+self["serve.step"]) / float64(roundTime)
		}
		for _, d := range perLayer {
			res.Metrics[d.Name] = value{Value: r.layer[d.Name], Unit: d.Unit}
		}
		return res, spans, nil
	}
	for _, d := range endToEnd {
		v, ok := r.e2e[d.Name]
		if !ok {
			return nil, nil, errors.New("no value for end-to-end metric " + d.Name)
		}
		v.Unit = d.Unit
		res.Metrics[d.Name] = v
	}
	return res, nil, nil
}

// timedOp is one call a training workload times every round.
type timedOp struct {
	name string
	call func(parent int) error
}

// samples are the measured wall times of one op across rounds, in ms.
type samples struct {
	raw              []float64
	traced, untraced []float64 // raw, split by whether the round was traced
}

// rounds runs every op once per round until budget is spent, rotating the
// op order each round so no op always runs first (or right after the same
// neighbour), and collecting the heap before each call so garbage from the
// previous one is not charged to it. Each round starts, untimed, with
// prepare(round) and a speed probe. With tracing on, even rounds are traced
// and odd ones are not; the difference is the tracing overhead.
func (r *runCtx) rounds(budget time.Duration, ops []timedOp, prepare func(k int) error) (map[string]*samples, error) {
	out := map[string]*samples{} // ops listed more than once share one entry
	for _, op := range ops {
		out[op.name] = &samples{}
	}
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < budget; k++ {
		traced := r.cfg.trace && k%2 == 0
		if r.cfg.trace {
			r.tr.setOn(traced)
		}
		if err := prepare(k); err != nil {
			return nil, err
		}
		r.collect()
		r.speed = append(r.speed, probeSpeed())
		rid := r.tr.begin("round", 0)
		for i := range ops {
			op := ops[(i+k)%len(ops)]
			r.collect()
			id := r.tr.begin(op.name, rid)
			t := time.Now()
			err := op.call(id)
			d := ms(time.Since(t))
			r.tr.end(id)
			r.check(err)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", op.name, err)
			}
			s := out[op.name]
			s.raw = append(s.raw, d)
			if traced {
				s.traced = append(s.traced, d)
			} else {
				s.untraced = append(s.untraced, d)
			}
		}
		r.tr.end(rid)
	}
	r.tr.setOn(r.cfg.trace)
	return out, nil
}

// overheadPct is the tracing overhead of an op: its traced median over its
// untraced median, less one, in percent. It is 0 when either side has no
// samples.
func overheadPct(s *samples) float64 {
	if len(s.traced) == 0 || len(s.untraced) == 0 {
		return 0
	}
	return 100 * (median(s.traced)/median(s.untraced) - 1)
}
