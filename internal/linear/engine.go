package linear

import (
	"context"
	"fmt"

	"repro/internal/solver"
)

func init() { solver.Register(linearEngine{}) }

// linearEngine adapts the explicit-w fast path to solver.Engine. It is the
// only engine that streams: any sparse.RowMatrix (including the out-of-core
// spill-backed OOCMatrix) trains row-at-a-time without whole-dataset
// residency.
type linearEngine struct{}

func (linearEngine) Name() string { return "linear" }

func (linearEngine) Capabilities() solver.Capability {
	return solver.CapClassify | solver.CapStreaming | solver.CapLinearVariants
}

func (linearEngine) Describe() string {
	return "explicit-w linear fast path (dcd hinge / miso squared hinge): no kernel matrix, streams out-of-core data"
}

func (e linearEngine) Train(ctx context.Context, prob solver.Problem, opts solver.Options) (solver.Result, error) {
	if err := solver.Validate(e, prob, opts); err != nil {
		return solver.Result{}, err
	}
	variant, err := variantOf(opts)
	if err != nil {
		return solver.Result{}, err
	}
	res, err := Train(prob.X, prob.Y, opts)
	if err != nil {
		return solver.Result{}, err
	}
	return solver.Result{
		Model: res.Model,
		Alpha: res.Alpha,
		Stats: res.Stats,
		Summary: fmt.Sprintf("variant=%s converged=%v epochs=%d updates=%d gap=%.3e nnz(w)=%d/%d",
			variant, res.Converged, res.Epochs, res.Iterations, res.Gap,
			res.NNZ(), len(res.W)),
	}, nil
}
