// Engine layer: the interface every training path in the repository is
// reached through, plus the process-wide registry the CLIs, the
// differential oracle and the divide-and-conquer sub-solver injection
// iterate instead of hard-coded engine lists.
//
// The package keeps its original role — the shared Eq. 4/6/7 numerical
// primitives — and adds the layer above them: a shared Problem (row-matrix
// data + labels + kernel + task kind) and Options (C, eps, seed, workers,
// heuristic, cache budget, and the Control every engine honours: iteration
// cap, warm-start alpha, checkpoint sink), so warm starts and checkpoint
// hooks are expressed once, and a declarative Capabilities
// bitset that replaces ad-hoc per-engine flag cross-validation: a consumer
// asks "does this engine stream?" instead of "is the solver string equal to
// linear?".
//
// Engines register themselves in their package init (importing the engine
// package is what makes it selectable); binaries and tests that want every
// engine available import repro/internal/engines for the side effect.
package solver

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/ckpt"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// Capability is one bit of an engine's declarative feature set.
type Capability uint32

// Capabilities an engine may declare. Task kinds and feature support share
// one bitset so a single Has check covers both "can this engine train an
// epsilon-SVR" and "does -checkpoint-dir apply".
const (
	// CapClassify: trains binary classifiers (labels in {+1, -1}).
	CapClassify Capability = 1 << iota
	// CapSVR: trains epsilon-SVR regression (continuous targets).
	CapSVR
	// CapOneClass: trains nu one-class anomaly detectors.
	CapOneClass
	// CapKernels: accepts arbitrary kernel parameters. Engines without it
	// are linear-only: they train an explicit hyperplane and reject (or
	// ignore) non-linear kernels.
	CapKernels
	// CapStreaming: accepts any sparse.RowMatrix, including the
	// out-of-core spill-backed OOCMatrix. Engines without it need the
	// whole dataset resident as an in-memory *sparse.Matrix.
	CapStreaming
	// CapWarmStart: consumes Options.InitialAlpha (checkpoint resume,
	// incremental updates, polish warm starts).
	CapWarmStart
	// CapCheckpoint: persists crash-consistent snapshots through
	// Options.Checkpoint.
	CapCheckpoint
	// CapTrace: records the shrink/reconstruction schedule for the
	// performance model (Options.RecordTrace, Result.Trace).
	CapTrace
	// CapDistributed: rank-parallel over the mpi substrate; Options.P
	// selects the rank count.
	CapDistributed
	// CapFaultInject: accepts an mpi fault plan (Options.Faults) for
	// crash-recovery drills.
	CapFaultInject
	// CapHeuristics: the Table II shrinking heuristics apply
	// (Options.Heuristic selects one by name).
	CapHeuristics
	// CapComposite: the engine is composed of sub-engine solves (dc). A
	// composite engine cannot itself serve as another engine's sub-solver.
	CapComposite
	// CapLinearVariants: the explicit-w linear family's variant knobs
	// (-linear-variant/-linear-epochs) apply.
	CapLinearVariants

	capMax
)

// capNames maps each bit to its flag-facing name (also used by CheckFlags
// error messages and the -list-solvers table).
var capNames = map[Capability]string{
	CapClassify:       "classify",
	CapSVR:            "svr",
	CapOneClass:       "one-class",
	CapKernels:        "kernels",
	CapStreaming:      "streaming",
	CapWarmStart:      "warm-start",
	CapCheckpoint:     "checkpoint",
	CapTrace:          "trace",
	CapDistributed:    "distributed",
	CapFaultInject:    "fault-inject",
	CapHeuristics:     "heuristics",
	CapComposite:      "composite",
	CapLinearVariants: "linear-variants",
}

// String names a single capability, or a comma-joined set for a combined
// bitset.
func (c Capability) String() string {
	if s, ok := capNames[c]; ok {
		return s
	}
	var parts []string
	for bit := Capability(1); bit < capMax; bit <<= 1 {
		if c&bit != 0 {
			parts = append(parts, capNames[bit])
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// Has reports whether every bit of want is set.
func (c Capability) Has(want Capability) bool { return c&want == want }

// Tasks returns the task kinds the capability set trains.
func (c Capability) Tasks() []model.Task {
	var out []model.Task
	if c.Has(CapClassify) {
		out = append(out, model.TaskCSVC)
	}
	if c.Has(CapSVR) {
		out = append(out, model.TaskSVR)
	}
	if c.Has(CapOneClass) {
		out = append(out, model.TaskOneClass)
	}
	return out
}

// SupportsTask reports whether the capability set trains the given kind
// (the empty kind means classification, matching model.TaskKind).
func (c Capability) SupportsTask(t model.Task) bool {
	switch t {
	case "", model.TaskCSVC:
		return c.Has(CapClassify)
	case model.TaskSVR:
		return c.Has(CapSVR)
	case model.TaskOneClass:
		return c.Has(CapOneClass)
	default:
		return false
	}
}

// Problem is the training input every engine consumes: the data, the
// labels (or regression targets; ignored by one-class), the kernel, and
// the task kind being solved.
type Problem struct {
	// X is the training matrix. Engines without CapStreaming require the
	// in-memory *sparse.Matrix concrete type.
	X sparse.RowMatrix
	// Y holds labels in {+1, -1} for classification, continuous targets
	// for TaskSVR, and is ignored (may be nil) for TaskOneClass.
	Y []float64
	// Kernel parameterizes the kernel. Engines without CapKernels accept
	// only kernel.Params{Type: kernel.Linear}.
	Kernel kernel.Params
	// Task selects the QP; the zero value is classification.
	Task model.Task
}

// rows returns the sample count, tolerating a nil matrix.
func (p Problem) rows() int {
	if p.X == nil {
		return 0
	}
	return p.X.Rows()
}

// DCOptions are the divide-and-conquer engine's knobs; dcsvm.Train
// documents how it reads them together with the shared Options.
type DCOptions struct {
	Clusters    int    // k-means clusters at the finest level (0 = 8)
	Levels      int    // hierarchy depth (0 = 1)
	KernelSpace bool   // cluster in kernel feature space
	SubSolver   string // registered engine name for finest-level sub-solves ("" = core)
	// PolishMaxIter caps the polish solve (early-stop mode); 0 runs it to
	// convergence.
	PolishMaxIter int64
	// PolishFull polishes over the full training set (eps-optimal on the
	// full QP) instead of the support-vector union.
	PolishFull bool
	// SubFaultCluster selects which cluster's sub-solve receives
	// Options.Faults.
	SubFaultCluster int
}

// LinearOptions are the explicit-w linear family's knobs.
type LinearOptions struct {
	Variant   string // "dcd" (default) or "miso"
	MaxEpochs int    // epoch cap (0 = variant default)
}

// TaskOptions are the task-variant hyper-parameters.
type TaskOptions struct {
	Epsilon float64 // epsilon-SVR tube half-width
	Nu      float64 // one-class nu in (0, 1]
}

// DefaultCacheBytes is the kernel-row cache budget a zero CacheBytes
// selects, in Options and in the core and smo configs alike.
const DefaultCacheBytes = 1 << 30

// CacheBudget resolves a CacheBytes setting: 0 is DefaultCacheBytes, a
// negative value turns the cache off (a budget below one row caches
// nothing), and any other value is the budget in bytes.
func CacheBudget(cacheBytes int64) int64 {
	if cacheBytes == 0 {
		return DefaultCacheBytes
	}
	return cacheBytes
}

// Control holds the run controls an engine honours the same way whatever
// its algorithm. Options, core.Config and smo.Config embed it, so an
// adapter hands it on as one value.
type Control struct {
	// MaxIter bounds the iteration count; 0 means the engine default.
	MaxIter int64

	// InitialAlpha warm-starts the engine from a feasible dual point (a
	// checkpoint's alpha, a recovered model, a coalesced union solution):
	// one entry per sample in dataset row order, each in the box, meeting
	// the dual's equality constraint. Requires CapWarmStart. The
	// divide-and-conquer engine treats it as a resume vector and goes
	// straight to a full-problem polish.
	InitialAlpha []float64

	// Checkpoint, when non-nil, makes the engine persist crash-consistent
	// snapshots every CheckpointEvery iterations; requires CapCheckpoint.
	// CheckpointFingerprint overrides the dataset hash stamped into them
	// (computed from the problem when zero). tasks passes the hash of the
	// caller's problem, not of the reshaped QP the smo engine solves, and
	// binds it to the base model for an incremental update; dc passes the
	// full problem's hash to its polish.
	Checkpoint            *ckpt.Writer
	CheckpointEvery       int64
	CheckpointFingerprint uint64
}

// Options carries the solver knobs shared by every engine — hyper-
// parameters, parallelism, the cache budget and the run controls — plus
// the per-family extensions. Engines read only the fields their
// capabilities declare; Validate rejects set fields an engine cannot
// honor, so nothing is silently ignored.
type Options struct {
	C   float64 // box constraint (required positive for every current engine)
	Eps float64 // termination tolerance (0 = 1e-3)

	Seed    int64 // clustering / permutation / checkpoint provenance seed
	Workers int   // gradient-update or cluster-solve goroutines (0 = GOMAXPROCS)
	P       int   // rank count for distributed engines (0 = 1)

	// Heuristic names a Table II shrinking strategy ("" = engine default);
	// requires CapHeuristics.
	Heuristic string

	// CacheBytes is the kernel-row cache budget of engines that cache, read
	// by CacheBudget (core splits it across its ranks; dc gives each
	// sub-solve 64 MiB when it is 0).
	CacheBytes int64

	Control

	// RecordTrace records the shrink/reconstruction schedule
	// (Result.Trace); requires CapTrace.
	RecordTrace bool

	// Faults injects a deterministic crash into the mpi substrate;
	// requires CapFaultInject.
	Faults mpi.FaultPlan

	DC     DCOptions
	Linear LinearOptions
	Task   TaskOptions
}

// Stats are the counters a training run reports. Every engine returns them
// in Result, and the native solver results embed them, so each counter is
// declared once. A counter an engine does not compute stays zero.
type Stats struct {
	// Iterations counts solver iterations (engine-defined unit: working-
	// set steps, or coordinate updates for the linear family; dc sums its
	// sub-solves and polish).
	Iterations int64
	// KernelEvals counts kernel evaluations (0 for the linear family).
	KernelEvals uint64
	// Converged reports whether the tolerance was met (dc: by the polish).
	Converged bool
	// Objective is the engine's dual objective at termination, when
	// defined.
	Objective float64
	// Gap is the final duality gap, where the engine computes one (linear).
	Gap float64
	// ShrinkEvents and Reconstructions count shrinking passes and gradient
	// reconstructions; FinalActive is the active-set size at termination.
	ShrinkEvents    int
	Reconstructions int
	FinalActive     int
	// CacheHits, CacheMisses and CacheEvictions count kernel-row cache
	// traffic (core and the smo family).
	CacheHits      uint64
	CacheMisses    uint64
	CacheEvictions uint64
}

// CacheHitRate is the share of kernel-row lookups the cache answered; 0
// when there were none.
func (s Stats) CacheHitRate() float64 {
	return float64(s.CacheHits) / float64(max(1, s.CacheHits+s.CacheMisses))
}

// Result is what every engine returns: the model plus the statistics the
// CLIs, benches and oracle consume without knowing which engine ran.
type Result struct {
	Model *model.Model
	// Alpha is the final dual point in problem row order, when the engine
	// exposes one (the linear family's dual, smo/core's alphas; nil for
	// composite engines whose polish owns the final point internally).
	Alpha []float64
	Stats
	// Summary is the engine's one-line human-readable account of the run,
	// printed verbatim by svmtrain.
	Summary string
	// Trace is the recorded schedule when Options.RecordTrace was set.
	Trace *trace.Trace
}

// Engine is one registered training path. Train must be safe for
// concurrent calls (dcsvm runs its sub-solver engine from one goroutine
// per cluster) and must validate (prob, opts) against its own
// capabilities before touching data — Validate does the generic part.
type Engine interface {
	Name() string
	Capabilities() Capability
	Train(ctx context.Context, prob Problem, opts Options) (Result, error)
}

// Describer is an optional Engine extension: a one-line "when to use"
// description for the registry table (-list-solvers, the README).
type Describer interface {
	Describe() string
}

// Describe returns the engine's when-to-use line, or "" if it has none.
func Describe(e Engine) string {
	if d, ok := e.(Describer); ok {
		return d.Describe()
	}
	return ""
}

var (
	regMu   sync.RWMutex
	reg     = map[string]Engine{}
	regName []string // registration-independent sorted cache
)

// Register adds an engine to the process-wide registry. It panics on a
// duplicate or empty name — registration happens in package inits, where a
// collision is a programming error, not a runtime condition.
func Register(e Engine) {
	name := e.Name()
	if name == "" {
		panic("solver: Register with empty engine name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := reg[name]; dup {
		panic("solver: duplicate engine registration: " + name)
	}
	reg[name] = e
	regName = append(regName, name)
	sort.Strings(regName)
}

// unregister removes an engine; only tests use it, to keep registry
// fixtures from leaking between test cases.
func unregister(name string) {
	regMu.Lock()
	defer regMu.Unlock()
	delete(reg, name)
	for i, n := range regName {
		if n == name {
			regName = append(regName[:i], regName[i+1:]...)
			break
		}
	}
}

// Lookup resolves a registered engine by name; the error lists every valid
// name so a CLI typo is self-correcting.
func Lookup(name string) (Engine, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	if e, ok := reg[name]; ok {
		return e, nil
	}
	return nil, fmt.Errorf("solver: unknown engine %q (registered: %s)", name, strings.Join(regName, ", "))
}

// Engines returns every registered engine, sorted by name.
func Engines() []Engine {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Engine, 0, len(regName))
	for _, n := range regName {
		out = append(out, reg[n])
	}
	return out
}

// Names returns the sorted registered engine names.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return append([]string(nil), regName...)
}

// WithCapability returns the sorted names of engines declaring every bit
// of want; error messages use it to tell the user which -solver values
// would have worked.
func WithCapability(want Capability) []string {
	var out []string
	for _, e := range Engines() {
		if e.Capabilities().Has(want) {
			out = append(out, e.Name())
		}
	}
	return out
}

// Validate rejects (prob, opts) combinations the engine's capabilities
// cannot honor, before any data-proportional work: unsupported task kinds,
// non-linear kernels on linear-only engines, out-of-core matrices on
// whole-residency engines, and warm-start / checkpoint / trace / fault /
// heuristic options on engines lacking the bit. Engine adapters call it at
// the top of Train; CLIs get the same errors earlier, at flag time, from
// CheckFlags.
func Validate(e Engine, prob Problem, opts Options) error {
	caps := e.Capabilities()
	if !caps.SupportsTask(prob.Task) {
		return fmt.Errorf("solver: engine %s does not train task %q (supported: %v)",
			e.Name(), prob.Task, caps.Tasks())
	}
	if !caps.Has(CapKernels) && prob.Kernel.Type != kernel.Linear {
		return fmt.Errorf("solver: engine %s is linear-only; kernel %v is unsupported (kernel engines: %s)",
			e.Name(), prob.Kernel.Type, strings.Join(WithCapability(CapKernels), ", "))
	}
	if _, inMemory := prob.X.(*sparse.Matrix); prob.X != nil && !inMemory && !caps.Has(CapStreaming) {
		return fmt.Errorf("solver: engine %s needs the whole dataset resident (in-memory matrix); streaming engines: %s",
			e.Name(), strings.Join(WithCapability(CapStreaming), ", "))
	}
	if opts.InitialAlpha != nil && !caps.Has(CapWarmStart) {
		return fmt.Errorf("solver: engine %s does not support warm starts (warm-start engines: %s)",
			e.Name(), strings.Join(WithCapability(CapWarmStart), ", "))
	}
	if opts.Checkpoint != nil && !caps.Has(CapCheckpoint) {
		return fmt.Errorf("solver: engine %s does not support checkpointing (checkpoint engines: %s)",
			e.Name(), strings.Join(WithCapability(CapCheckpoint), ", "))
	}
	if opts.RecordTrace && !caps.Has(CapTrace) {
		return fmt.Errorf("solver: engine %s does not record traces (trace engines: %s)",
			e.Name(), strings.Join(WithCapability(CapTrace), ", "))
	}
	if opts.Faults.Enabled() && !caps.Has(CapFaultInject) {
		return fmt.Errorf("solver: engine %s does not support fault injection (fault-inject engines: %s)",
			e.Name(), strings.Join(WithCapability(CapFaultInject), ", "))
	}
	if opts.Heuristic != "" && !caps.Has(CapHeuristics) {
		return fmt.Errorf("solver: engine %s does not use the Table II shrinking heuristics (heuristic engines: %s)",
			e.Name(), strings.Join(WithCapability(CapHeuristics), ", "))
	}
	if opts.P > 1 && !caps.Has(CapDistributed) && !caps.Has(CapComposite) {
		return fmt.Errorf("solver: engine %s runs in a single process; -p does not apply (distributed engines: %s)",
			e.Name(), strings.Join(WithCapability(CapDistributed), ", "))
	}
	return nil
}

// Train resolves name in the registry, validates, and trains — the
// one-call path for callers that hold an engine name rather than an
// Engine (the divide-and-conquer sub-solver injection, the CV grid).
func Train(ctx context.Context, name string, prob Problem, opts Options) (Result, error) {
	e, err := Lookup(name)
	if err != nil {
		return Result{}, err
	}
	return e.Train(ctx, prob, opts)
}
