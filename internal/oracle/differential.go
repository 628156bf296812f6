package oracle

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/solver"
	"repro/internal/sparse"

	// RunDifferential iterates the solver registry; importing the kernel
	// classification engines here keeps the harness self-sufficient — a
	// caller gets the full sweep without blank-importing engines itself.
	// (The aggregator package repro/internal/engines cannot be used: it
	// pulls in tasks, which imports this package.)
	_ "repro/internal/dcsvm"
	_ "repro/internal/smo"
)

// DiffOptions configures a differential run: which hyper-parameters every
// engine is handed, and the per-engine knobs that must not change the
// optimum they converge to.
type DiffOptions struct {
	Kernel kernel.Params
	C      float64
	Eps    float64 // 0 means 1e-3

	// Heuristics are the core-engine shrinking strategies to cover; nil
	// means all of Table II (the twelve shrinking rows plus the no-shrink
	// Original baseline).
	Heuristics []core.Heuristic
	// P is the rank count for core runs; 0 means 1. Iterate sequences are
	// p-independent by construction, so parity must hold at any p.
	P int
	// CacheBytes is the smo kernel-row cache budget; 0 means 16 MiB.
	CacheBytes int64
	// DCClusters is the dcsvm cluster count; 0 means 4.
	DCClusters int
	// Seed feeds dcsvm clustering; the whole run is deterministic in it.
	Seed int64
	// Workers bounds oracle verification goroutines; 0 means GOMAXPROCS.
	Workers int
}

func (o DiffOptions) withDefaults() DiffOptions {
	if o.Eps <= 0 {
		o.Eps = 1e-3
	}
	if o.Heuristics == nil {
		o.Heuristics = core.Table2()
	}
	if o.P <= 0 {
		o.P = 1
	}
	if o.CacheBytes <= 0 {
		o.CacheBytes = 16 << 20
	}
	if o.DCClusters <= 0 {
		o.DCClusters = 4
	}
	return o
}

// EngineResult is one engine's trained model with its oracle report.
type EngineResult struct {
	Name   string
	Model  *model.Model
	Report *Report
}

// DiffReport is the outcome of a differential run over every engine.
type DiffReport struct {
	Results []EngineResult

	// MaxSpread is the largest pairwise dual-objective disagreement;
	// LowEngine/HighEngine name the pair that attains it.
	MaxSpread  float64
	LowEngine  string
	HighEngine string
	// SpreadTolerance is the engine-independent bound two eps-approximate
	// solutions may differ by (each is within GapTolerance of the optimum).
	SpreadTolerance float64
}

// Check returns nil when every engine individually passes its oracle check
// and all pairwise dual objectives agree within tolerance. On failure the
// error names the disagreeing engines and the worst-violating sample with
// full context, so the offending heuristic and sample are identifiable
// from the message alone.
func (d *DiffReport) Check() error {
	for _, r := range d.Results {
		if err := r.Report.Check(); err != nil {
			return fmt.Errorf("engine %s: %w", r.Name, err)
		}
	}
	if d.MaxSpread > d.SpreadTolerance {
		var lowRep *Report
		for _, r := range d.Results {
			if r.Name == d.LowEngine {
				lowRep = r.Report
			}
		}
		detail := ""
		if lowRep != nil {
			detail = fmt.Sprintf("; worst violator of %s: %s", d.LowEngine, lowRep.Worst)
		}
		return fmt.Errorf("oracle: dual objectives disagree by %.6g (tolerance %.6g): %s=%.6f vs %s=%.6f%s",
			d.MaxSpread, d.SpreadTolerance,
			d.LowEngine, lowObjective(d), d.HighEngine, highObjective(d), detail)
	}
	return nil
}

func lowObjective(d *DiffReport) float64 {
	for _, r := range d.Results {
		if r.Name == d.LowEngine {
			return r.Report.DualObjective
		}
	}
	return math.NaN()
}

func highObjective(d *DiffReport) float64 {
	for _, r := range d.Results {
		if r.Name == d.HighEngine {
			return r.Report.DualObjective
		}
	}
	return math.NaN()
}

// RunDifferential trains every registered classification engine on the
// same problem and verifies each result with the oracle. The run list is
// the solver registry, not a hard-coded engine enumeration; per engine the
// coverage follows its declared capabilities:
//
//   - heuristic-capable engines (the distributed core solver) run under
//     every requested Table II heuristic (the no-shrink Original is the
//     reference the paper's exactness claim compares against);
//   - composite engines (divide-and-conquer) run once with the full-problem
//     polish, which is what makes them comparable at eps-exactness;
//   - every other kernel classifier (the smo baseline, the second-order
//     smo2) runs cold-started and then — when warm-start capable —
//     warm-started from its own recovered solution (the warm path must not
//     move the optimum).
//
// Linear-only and task-only engines are skipped: they do not solve this
// kernel classification QP. Training errors abort the run; verification
// failures do not — they are recorded in the reports so Check can present
// every engine's state.
func RunDifferential(x *sparse.Matrix, y []float64, opts DiffOptions) (*DiffReport, error) {
	opts = opts.withDefaults()
	prob := Problem{X: x, Y: y, Kernel: opts.Kernel, C: opts.C, Eps: opts.Eps, Workers: opts.Workers}
	sprob := solver.Problem{X: x, Y: y, Kernel: opts.Kernel}

	d := &DiffReport{SpreadTolerance: GapTolerance(x.Rows(), opts.C, opts.Eps)}
	add := func(name string, m *model.Model) error {
		rep, err := prob.VerifyModel(m)
		if err != nil {
			return fmt.Errorf("oracle: engine %s: %w", name, err)
		}
		d.Results = append(d.Results, EngineResult{Name: name, Model: m, Report: rep})
		return nil
	}

	for _, eng := range solver.Engines() {
		caps := eng.Capabilities()
		if !caps.Has(solver.CapClassify | solver.CapKernels) {
			continue
		}
		switch {
		case caps.Has(solver.CapComposite):
			res, err := eng.Train(context.Background(), sprob, solver.Options{
				C: opts.C, Eps: opts.Eps, Seed: opts.Seed,
				DC: solver.DCOptions{Clusters: opts.DCClusters, SubSolver: "smo", PolishFull: true},
			})
			if err != nil {
				return nil, fmt.Errorf("oracle: %s: %w", eng.Name(), err)
			}
			if err := add(eng.Name(), res.Model); err != nil {
				return nil, err
			}

		case caps.Has(solver.CapHeuristics):
			for _, h := range opts.Heuristics {
				res, err := eng.Train(context.Background(), sprob, solver.Options{
					C: opts.C, Eps: opts.Eps, P: opts.P, Heuristic: h.Name,
				})
				if err != nil {
					return nil, fmt.Errorf("oracle: %s/%s: %w", eng.Name(), h.Name, err)
				}
				if err := add(eng.Name()+"/"+h.Name, res.Model); err != nil {
					return nil, err
				}
			}

		default:
			cold, err := eng.Train(context.Background(), sprob, solver.Options{
				C: opts.C, Eps: opts.Eps, CacheBytes: opts.CacheBytes,
			})
			if err != nil {
				return nil, fmt.Errorf("oracle: %s-cold: %w", eng.Name(), err)
			}
			if err := add(eng.Name()+"-cold", cold.Model); err != nil {
				return nil, err
			}
			if !caps.Has(solver.CapWarmStart) {
				continue
			}
			warmAlpha, err := RecoverAlpha(x, y, cold.Model)
			if err != nil {
				return nil, fmt.Errorf("oracle: %s-warm start: %w", eng.Name(), err)
			}
			warm, err := eng.Train(context.Background(), sprob, solver.Options{
				C: opts.C, Eps: opts.Eps, CacheBytes: opts.CacheBytes,
				Control: solver.Control{InitialAlpha: warmAlpha},
			})
			if err != nil {
				return nil, fmt.Errorf("oracle: %s-warm: %w", eng.Name(), err)
			}
			if err := add(eng.Name()+"-warm", warm.Model); err != nil {
				return nil, err
			}
		}
	}

	low, high := math.Inf(1), math.Inf(-1)
	for _, r := range d.Results {
		obj := r.Report.DualObjective
		if obj < low {
			low, d.LowEngine = obj, r.Name
		}
		if obj > high {
			high, d.HighEngine = obj, r.Name
		}
	}
	d.MaxSpread = high - low
	return d, nil
}
