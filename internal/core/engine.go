package core

import (
	"context"
	"fmt"

	"repro/internal/mpi"
	"repro/internal/solver"
	"repro/internal/sparse"
)

func init() { solver.Register(coreEngine{}) }

// coreEngine adapts the paper's distributed solver to solver.Engine.
type coreEngine struct{}

func (coreEngine) Name() string { return "core" }

func (coreEngine) Capabilities() solver.Capability {
	return solver.CapClassify | solver.CapKernels | solver.CapWarmStart |
		solver.CapCheckpoint | solver.CapTrace | solver.CapDistributed |
		solver.CapFaultInject | solver.CapHeuristics
}

func (coreEngine) Describe() string {
	return "the paper's distributed solver: rank-parallel shrinking SMO with the Table II heuristics; the default"
}

func (e coreEngine) Train(ctx context.Context, prob solver.Problem, opts solver.Options) (solver.Result, error) {
	if err := solver.Validate(e, prob, opts); err != nil {
		return solver.Result{}, err
	}
	x, ok := prob.X.(*sparse.Matrix)
	if !ok {
		return solver.Result{}, fmt.Errorf("core: engine needs an in-memory matrix, got %T", prob.X)
	}
	cfg := Config{
		Kernel: prob.Kernel, C: opts.C, Eps: opts.Eps, Control: opts.Control,
		CheckpointSeed: opts.Seed, RecordTrace: opts.RecordTrace, CacheBytes: opts.CacheBytes,
	}
	if opts.Heuristic != "" {
		h, err := HeuristicByName(opts.Heuristic)
		if err != nil {
			return solver.Result{}, err
		}
		cfg.Heuristic = h
	}
	p := opts.P
	if p <= 0 {
		p = 1
	}
	m, st, _, err := TrainParallelOpts(x, prob.Y, p, cfg, mpi.Options{Faults: opts.Faults})
	if err != nil {
		return solver.Result{}, err
	}
	nSV := m.NumSV()
	return solver.Result{
		Model: m,
		Stats: st.Stats,
		Summary: fmt.Sprintf("converged=%v iterations=%d shrink-events=%d reconstructions=%d SVs=%d (%.1f%% of samples)",
			st.Converged, st.Iterations, st.ShrinkEvents, st.Reconstructions,
			nSV, 100*float64(nSV)/float64(x.Rows())),
		Trace: st.Trace,
	}, nil
}
