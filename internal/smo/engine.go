package smo

import (
	"context"
	"fmt"

	"repro/internal/kernel"
	"repro/internal/solver"
	"repro/internal/sparse"
)

func init() {
	solver.Register(smoEngine{name: "smo", secondOrder: false})
	solver.Register(smoEngine{name: "smo2", secondOrder: true})
}

// smoEngine adapts the libsvm-enhanced baseline to solver.Engine, in two
// registrations: "smo" selects working sets by the maximal violating pair
// (Keerthi et al., the paper's setting), "smo2" by libsvm's second-order
// max-gain rule. Everything else — cache, shrinking, warm start,
// checkpointing — is shared.
type smoEngine struct {
	name        string
	secondOrder bool
}

func (e smoEngine) Name() string { return e.name }

func (smoEngine) Capabilities() solver.Capability {
	return solver.CapClassify | solver.CapKernels | solver.CapWarmStart |
		solver.CapCheckpoint | solver.CapTrace
}

func (e smoEngine) Describe() string {
	if e.secondOrder {
		return "single-node SMO with libsvm's second-order max-gain pair selection; fewer iterations per solve on hard problems"
	}
	return "the libsvm-enhanced single-node baseline: maximal-violating-pair SMO with kernel cache and shrinking"
}

// FromOptions is the one mapping from the shared solver options to a
// Config, used by every engine that runs this solver (smo, smo2, tasks, and
// dc's warm sub-solves and polish). Shrinking is on. Knobs Options does not
// carry — SecondOrder, the QP shape, CheckpointLabel — are left for the
// caller.
func FromOptions(k kernel.Params, opts solver.Options) Config {
	return Config{
		Kernel: k, C: opts.C, Eps: opts.Eps,
		Workers: opts.Workers, CacheBytes: opts.CacheBytes, Shrinking: true,
		Control: opts.Control, CheckpointSeed: opts.Seed, RecordTrace: opts.RecordTrace,
	}
}

func (e smoEngine) Train(ctx context.Context, prob solver.Problem, opts solver.Options) (solver.Result, error) {
	if err := solver.Validate(e, prob, opts); err != nil {
		return solver.Result{}, err
	}
	x, ok := prob.X.(*sparse.Matrix)
	if !ok {
		return solver.Result{}, fmt.Errorf("smo: engine needs an in-memory matrix, got %T", prob.X)
	}
	cfg := FromOptions(prob.Kernel, opts)
	cfg.SecondOrder = e.secondOrder
	res, err := Train(x, prob.Y, cfg)
	if err != nil {
		return solver.Result{}, err
	}
	return solver.Result{
		Model: res.Model,
		Alpha: res.Alpha,
		Stats: res.Stats,
		Summary: fmt.Sprintf("converged=%v iterations=%d cache-hit=%.1f%% cache-evictions=%d SVs=%d",
			res.Converged, res.Iterations,
			100*res.CacheHitRate(),
			res.CacheEvictions,
			res.Model.NumSV()),
		Trace: res.Trace,
	}, nil
}
