package tasks

import (
	"context"
	"fmt"

	"repro/internal/model"
	"repro/internal/solver"
	"repro/internal/sparse"
)

func init() { solver.Register(taskEngine{}) }

// taskEngine adapts the task-variant formulations to solver.Engine,
// dispatching on Problem.Task: epsilon-SVR (Problem.Y holds continuous
// targets, Options.Task.Epsilon the tube) or one-class (Problem.Y ignored,
// Options.Task.Nu the outlier bound). Options.InitialAlpha warm-starts in
// the task's own dual coordinates: the collapsed signed coefficients
// d_i = alpha_i - alpha*_i for SVR, the per-row alpha for one-class.
type taskEngine struct{}

func (taskEngine) Name() string { return "tasks" }

func (taskEngine) Capabilities() solver.Capability {
	return solver.CapSVR | solver.CapOneClass | solver.CapKernels |
		solver.CapWarmStart | solver.CapCheckpoint
}

func (taskEngine) Describe() string {
	return "task variants over the generalized SMO engine: epsilon-SVR regression and nu one-class anomaly detection"
}

func (e taskEngine) Train(ctx context.Context, prob solver.Problem, opts solver.Options) (solver.Result, error) {
	if err := solver.Validate(e, prob, opts); err != nil {
		return solver.Result{}, err
	}
	x, ok := prob.X.(*sparse.Matrix)
	if !ok {
		return solver.Result{}, fmt.Errorf("tasks: engine needs an in-memory matrix, got %T", prob.X)
	}
	switch prob.Task {
	case model.TaskSVR:
		return TrainSVR(x, prob.Y, prob.Kernel, opts)
	case model.TaskOneClass:
		return TrainOneClass(x, prob.Kernel, opts)
	default:
		return solver.Result{}, fmt.Errorf("tasks: engine does not train task %q", prob.Task)
	}
}
