package dcsvm

import (
	"context"
	"fmt"

	"repro/internal/solver"
	"repro/internal/sparse"
)

func init() { solver.Register(dcEngine{}) }

// dcEngine adapts divide-and-conquer training to solver.Engine. It is the
// registry's one composite engine: finest-level sub-problems are solved by
// another registered engine (Options.DC.SubSolver), so it cannot itself be
// a sub-solver.
type dcEngine struct{}

func (dcEngine) Name() string { return "dc" }

func (dcEngine) Capabilities() solver.Capability {
	return solver.CapClassify | solver.CapKernels | solver.CapWarmStart |
		solver.CapCheckpoint | solver.CapHeuristics | solver.CapDistributed |
		solver.CapFaultInject | solver.CapComposite
}

func (dcEngine) Describe() string {
	return "divide-and-conquer: k-means clusters solved in parallel by a sub-engine, coalesced, then polish; for datasets a single solve can't reach"
}

func (e dcEngine) Train(ctx context.Context, prob solver.Problem, opts solver.Options) (solver.Result, error) {
	if err := solver.Validate(e, prob, opts); err != nil {
		return solver.Result{}, err
	}
	x, ok := prob.X.(*sparse.Matrix)
	if !ok {
		return solver.Result{}, fmt.Errorf("dcsvm: engine needs an in-memory matrix, got %T", prob.X)
	}
	m, st, err := Train(x, prob.Y, prob.Kernel, opts)
	if err != nil {
		return solver.Result{}, err
	}
	nSV := m.NumSV()
	return solver.Result{
		Model: m,
		Stats: st.Stats,
		Summary: fmt.Sprintf("levels=%d coalesced-SVs=%d sub-iterations=%d polish-iterations=%d polish-converged=%v SVs=%d (%.1f%% of samples)",
			len(st.Levels), st.CoalescedSVs, st.Iterations-st.PolishIterations, st.PolishIterations,
			st.Converged, nSV, 100*float64(nSV)/float64(x.Rows())),
	}, nil
}
