package engines_test

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dcsvm"
	"repro/internal/kernel"
	"repro/internal/linear"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/oracle"
	"repro/internal/smo"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/tasks"

	_ "repro/internal/engines"
)

// TestRegistryContents pins the engine roster: adding an engine must extend
// this list consciously, and nothing may vanish or collide.
func TestRegistryContents(t *testing.T) {
	want := []string{"core", "dc", "linear", "smo", "smo2", "tasks"}
	got := solver.Names()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("registered engines = %v, want %v", got, want)
	}
	for _, name := range want {
		e, err := solver.Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%s): %v", name, err)
		}
		if e.Name() != name {
			t.Errorf("engine registered as %q reports Name()=%q", name, e.Name())
		}
		if solver.Describe(e) == "" {
			t.Errorf("engine %s has no description", name)
		}
	}
}

func classProblem(t *testing.T) (solver.Problem, *dataset.Dataset) {
	t.Helper()
	ds := dataset.MustGenerate("blobs", 0.1)
	return solver.Problem{X: ds.X, Y: ds.Y, Kernel: kernel.FromSigma2(ds.Sigma2)}, ds
}

// TestEngineParityWithDirectAPIs proves the refactor moved no numerics:
// every engine adapter must produce a model identical (reflect.DeepEqual,
// i.e. bit-for-bit on the float fields) to the pre-existing direct API it
// wraps, given the same seeds and hyper-parameters, and report the same
// solver.Stats the direct API returns — so a caller never needs the native
// entry point just to read a counter.
func TestEngineParityWithDirectAPIs(t *testing.T) {
	prob, ds := classProblem(t)
	ctx := context.Background()

	t.Run("core", func(t *testing.T) {
		h, err := core.HeuristicByName("Multi5pc")
		if err != nil {
			t.Fatal(err)
		}
		direct, st, err := core.TrainParallel(ds.X, ds.Y, 2, core.Config{
			Kernel: prob.Kernel, C: ds.C, Eps: 1e-3, Heuristic: h,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := solver.Train(ctx, "core", prob, solver.Options{
			C: ds.C, Eps: 1e-3, P: 2, Heuristic: "Multi5pc",
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Model, direct) {
			t.Error("core engine model differs from core.TrainParallel")
		}
		sameStats(t, "core", res.Stats, st.Stats)
		if res.ShrinkEvents == 0 || res.FinalActive == 0 {
			t.Errorf("core engine reports no shrinking: %+v", res.Stats)
		}
	})

	t.Run("smo-and-smo2", func(t *testing.T) {
		for _, tc := range []struct {
			engine string
			second bool
		}{{"smo", false}, {"smo2", true}} {
			direct, err := smo.Train(ds.X, ds.Y, smo.Config{
				Kernel: prob.Kernel, C: ds.C, Eps: 1e-3,
				CacheBytes: 1 << 30, Shrinking: true, SecondOrder: tc.second,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := solver.Train(ctx, tc.engine, prob, solver.Options{C: ds.C, Eps: 1e-3})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Model, direct.Model) {
				t.Errorf("%s engine model differs from smo.Train(SecondOrder=%v)", tc.engine, tc.second)
			}
			sameStats(t, tc.engine, res.Stats, direct.Stats)
			if res.CacheHits+res.CacheMisses == 0 {
				t.Errorf("%s engine reports no kernel-cache traffic: %+v", tc.engine, res.Stats)
			}
		}
	})

	t.Run("dc", func(t *testing.T) {
		opts := solver.Options{
			C: ds.C, Eps: 1e-3, Seed: 42,
			DC: solver.DCOptions{Clusters: 4, PolishFull: true},
		}
		direct, st, err := dcsvm.Train(ds.X, ds.Y, prob.Kernel, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := solver.Train(ctx, "dc", prob, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Model, direct) {
			t.Error("dc engine model differs from dcsvm.Train")
		}
		sameStats(t, "dc", res.Stats, st.Stats)
		if res.Iterations <= st.PolishIterations {
			t.Errorf("dc iterations %d do not include the sub-solves (polish %d)", res.Iterations, st.PolishIterations)
		}
	})

	t.Run("linear", func(t *testing.T) {
		opts := solver.Options{C: ds.C, Eps: 1e-3, Seed: 7}
		direct, err := linear.Train(ds.X, ds.Y, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := solver.Train(ctx, "linear",
			solver.Problem{X: ds.X, Y: ds.Y, Kernel: kernel.Params{Type: kernel.Linear}}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Model, direct.Model) {
			t.Error("linear engine model differs from linear.Train")
		}
		sameStats(t, "linear", res.Stats, direct.Stats)
		if res.Gap <= 0 {
			t.Errorf("linear engine reports no duality gap: %+v", res.Stats)
		}
	})

	t.Run("tasks-svr", func(t *testing.T) {
		x, z, err := dataset.GenerateRegression(150, 4, 0.05, 11)
		if err != nil {
			t.Fatal(err)
		}
		kp := kernel.FromSigma2(2)
		opts := solver.Options{C: 10, Eps: 1e-3, Task: solver.TaskOptions{Epsilon: 0.1}}
		direct, err := tasks.TrainSVR(x, z, kp, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := solver.Train(ctx, "tasks",
			solver.Problem{X: x, Y: z, Kernel: kp, Task: model.TaskSVR}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Model, direct.Model) {
			t.Error("tasks engine SVR model differs from tasks.TrainSVR")
		}
		sameStats(t, "tasks", res.Stats, direct.Stats)
	})
}

// sameStats fails unless the registry's counters equal the direct API's and
// the run did some work.
func sameStats(t *testing.T, engine string, got, want solver.Stats) {
	t.Helper()
	if got != want {
		t.Errorf("%s engine stats %+v != direct %+v", engine, got, want)
	}
	if got.Iterations == 0 || !got.Converged {
		t.Errorf("%s engine reports no converged iterations: %+v", engine, got)
	}
}

// TestConcurrentTrainMatchesSerial pins the Engine contract dcsvm relies on
// when it sub-solves clusters on a goroutine each: every non-composite
// classifier trains one seeded problem from several goroutines at once, and
// each model's bytes must equal a serial call's. CI runs it under -race.
func TestConcurrentTrainMatchesSerial(t *testing.T) {
	prob, ds := classProblem(t)
	opts := solver.Options{C: ds.C, Eps: 1e-3, Seed: 7}
	var tested []string
	for _, eng := range solver.Engines() {
		caps := eng.Capabilities()
		if !caps.Has(solver.CapClassify) || caps.Has(solver.CapComposite) {
			continue
		}
		tested = append(tested, eng.Name())
		p := prob
		if !caps.Has(solver.CapKernels) {
			p.Kernel = kernel.Params{Type: kernel.Linear}
		}
		modelBytes := func() ([]byte, error) {
			res, err := eng.Train(context.Background(), p, opts)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			err = res.Model.Write(&buf)
			return buf.Bytes(), err
		}
		t.Run(eng.Name(), func(t *testing.T) {
			want, err := modelBytes()
			if err != nil {
				t.Fatal(err)
			}
			const goroutines = 4
			got := make([][]byte, goroutines)
			errs := make([]error, goroutines)
			var wg sync.WaitGroup
			for g := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[g], errs[g] = modelBytes()
				}()
			}
			wg.Wait()
			for g := range got {
				if errs[g] != nil {
					t.Errorf("goroutine %d: %v", g, errs[g])
				} else if !bytes.Equal(got[g], want) {
					t.Errorf("goroutine %d: model bytes differ from the serial call's", g)
				}
			}
		})
	}
	if want := []string{"core", "linear", "smo", "smo2"}; !reflect.DeepEqual(tested, want) {
		t.Errorf("concurrently trained engines = %v, want %v", tested, want)
	}
}

// TestEnginesSmokeTrainAndOracleVerify trains every registered engine on a
// tiny seeded problem through the Engine interface and verifies each result
// with the correctness oracle — the registry-wide variant of the CI
// "engines" job.
func TestEnginesSmokeTrainAndOracleVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("trains every engine; skipped in -short")
	}
	prob, ds := classProblem(t)
	ctx := context.Background()
	objectives := map[string]float64{}
	for _, eng := range solver.Engines() {
		caps := eng.Capabilities()
		switch {
		case caps.Has(solver.CapClassify | solver.CapKernels):
			opts := solver.Options{C: ds.C, Eps: 1e-3, Seed: 7}
			if caps.Has(solver.CapComposite) {
				// Only the full-problem polish is eps-optimal on the full QP.
				opts.DC = solver.DCOptions{Clusters: 4, PolishFull: true}
			}
			res, err := eng.Train(ctx, prob, opts)
			if err != nil {
				t.Errorf("%s: train: %v", eng.Name(), err)
				continue
			}
			op := oracle.Problem{X: ds.X, Y: ds.Y, Kernel: prob.Kernel, C: ds.C, Eps: 1e-3}
			rep, err := op.VerifyModel(res.Model)
			if err != nil {
				t.Errorf("%s: oracle: %v", eng.Name(), err)
				continue
			}
			if err := rep.Check(); err != nil {
				t.Errorf("%s: oracle check: %v", eng.Name(), err)
			}
			objectives[eng.Name()] = rep.DualObjective

		case caps.Has(solver.CapClassify): // linear-only
			lp := solver.Problem{X: ds.X, Y: ds.Y, Kernel: kernel.Params{Type: kernel.Linear}}
			res, err := eng.Train(ctx, lp, solver.Options{C: ds.C, Eps: 1e-3, Seed: 7})
			if err != nil {
				t.Errorf("%s: train: %v", eng.Name(), err)
				continue
			}
			op := oracle.LinearProblem{X: ds.X, Y: ds.Y, C: ds.C, Eps: 1e-3, Loss: oracle.HingeLoss}
			rep, err := op.VerifyLinearModel(res.Model, res.Alpha)
			if err != nil {
				t.Errorf("%s: oracle: %v", eng.Name(), err)
				continue
			}
			if err := rep.Check(); err != nil {
				t.Errorf("%s: oracle check: %v", eng.Name(), err)
			}

		case caps.Has(solver.CapSVR):
			x, z, err := dataset.GenerateRegression(150, 4, 0.05, 11)
			if err != nil {
				t.Fatal(err)
			}
			kp := kernel.FromSigma2(2)
			res, err := eng.Train(ctx,
				solver.Problem{X: x, Y: z, Kernel: kp, Task: model.TaskSVR},
				solver.Options{C: 10, Eps: 1e-3, Task: solver.TaskOptions{Epsilon: 0.1}})
			if err != nil {
				t.Errorf("%s: svr train: %v", eng.Name(), err)
				continue
			}
			op := oracle.SVRProblem{X: x, Z: z, Kernel: kp, C: 10, Epsilon: 0.1, Eps: 1e-3}
			rep, err := op.VerifyModel(res.Model)
			if err != nil {
				t.Errorf("%s: svr oracle: %v", eng.Name(), err)
				continue
			}
			if err := rep.Check(); err != nil {
				t.Errorf("%s: svr oracle check: %v", eng.Name(), err)
			}
			if caps.Has(solver.CapOneClass) {
				ox, _, err := dataset.GenerateOneClass(200, 4, 0.05, 13)
				if err != nil {
					t.Fatal(err)
				}
				ores, err := eng.Train(ctx,
					solver.Problem{X: ox, Kernel: kp, Task: model.TaskOneClass},
					solver.Options{Eps: 1e-3, Task: solver.TaskOptions{Nu: 0.2}})
				if err != nil {
					t.Errorf("%s: one-class train: %v", eng.Name(), err)
					continue
				}
				oop := oracle.OneClassProblem{X: ox, Kernel: kp, Nu: 0.2, Eps: 1e-3}
				orep, err := oop.VerifyModel(ores.Model)
				if err != nil {
					t.Errorf("%s: one-class oracle: %v", eng.Name(), err)
					continue
				}
				if err := orep.Check(); err != nil {
					t.Errorf("%s: one-class oracle check: %v", eng.Name(), err)
				}
			}

		default:
			t.Errorf("engine %s trains no recognized task kind (caps %s)", eng.Name(), caps)
		}
	}
	// Pairwise objective agreement across the kernel classifiers: each is
	// eps-approximate, so any two may differ by at most the summed gap
	// tolerance.
	tol := oracle.GapTolerance(ds.X.Rows(), ds.C, 1e-3)
	for a, oa := range objectives {
		for b, ob := range objectives {
			if a < b && !(oa-ob <= tol && ob-oa <= tol) {
				t.Errorf("engines %s and %s disagree on the dual objective: %.6f vs %.6f (tol %.3g)",
					a, b, oa, ob, tol)
			}
		}
	}
}

// stubMatrix is a RowMatrix that is not a *sparse.Matrix, standing in for
// the out-of-core path in Validate's residency check.
type stubMatrix struct{ m *sparse.Matrix }

func (s stubMatrix) Rows() int                { return s.m.Rows() }
func (s stubMatrix) Dim() int                 { return s.m.Dim() }
func (s stubMatrix) RowView(i int) sparse.Row { return s.m.RowView(i) }

// TestValidateRejectsUnsupportedOptions enumerates (engine x unsupported
// option) pairs: every one must fail Validate — i.e. before any
// data-proportional work — with an error naming the engine.
func TestValidateRejectsUnsupportedOptions(t *testing.T) {
	b := sparse.NewBuilder(2)
	for i := 0; i < 4; i++ {
		b.Add(0, float64(i))
		b.Add(1, float64(-i))
		b.EndRow()
	}
	x := b.Build()
	y := []float64{1, -1, 1, -1}
	rbf := solver.Problem{X: x, Y: y, Kernel: kernel.FromSigma2(1)}
	lin := solver.Problem{X: x, Y: y, Kernel: kernel.Params{Type: kernel.Linear}}

	type pair struct {
		engine string
		reason string
		prob   solver.Problem
		opts   solver.Options
	}
	alpha := make([]float64, 4)
	pairs := []pair{
		{"linear", "warm start", lin, solver.Options{Control: solver.Control{InitialAlpha: alpha}}},
		{"linear", "trace", lin, solver.Options{RecordTrace: true}},
		{"linear", "heuristic", lin, solver.Options{Heuristic: "Multi5pc"}},
		{"linear", "distributed", lin, solver.Options{P: 2}},
		{"linear", "faults", lin, solver.Options{Faults: mpi.FaultPlan{CrashRank: 0, CrashAtOp: 1}}},
		{"linear", "rbf kernel", rbf, solver.Options{}},
		{"linear", "svr task", solver.Problem{X: x, Y: y, Kernel: lin.Kernel, Task: model.TaskSVR}, solver.Options{}},
		{"smo", "heuristic", rbf, solver.Options{Heuristic: "Multi5pc"}},
		{"smo", "distributed", rbf, solver.Options{P: 2}},
		{"smo", "faults", rbf, solver.Options{Faults: mpi.FaultPlan{CrashRank: 0, CrashAtOp: 1}}},
		{"smo", "streaming", solver.Problem{X: stubMatrix{x}, Y: y, Kernel: rbf.Kernel}, solver.Options{}},
		{"smo2", "heuristic", rbf, solver.Options{Heuristic: "Multi5pc"}},
		{"smo2", "streaming", solver.Problem{X: stubMatrix{x}, Y: y, Kernel: rbf.Kernel}, solver.Options{}},
		{"core", "svr task", solver.Problem{X: x, Y: y, Kernel: rbf.Kernel, Task: model.TaskSVR}, solver.Options{}},
		{"core", "one-class task", solver.Problem{X: x, Y: y, Kernel: rbf.Kernel, Task: model.TaskOneClass}, solver.Options{}},
		{"core", "streaming", solver.Problem{X: stubMatrix{x}, Y: y, Kernel: rbf.Kernel}, solver.Options{}},
		{"dc", "trace", rbf, solver.Options{RecordTrace: true}},
		{"dc", "streaming", solver.Problem{X: stubMatrix{x}, Y: y, Kernel: rbf.Kernel}, solver.Options{}},
		{"tasks", "classification", rbf, solver.Options{}},
		{"tasks", "trace", solver.Problem{X: x, Y: y, Kernel: rbf.Kernel, Task: model.TaskSVR}, solver.Options{RecordTrace: true}},
		{"tasks", "distributed", solver.Problem{X: x, Y: y, Kernel: rbf.Kernel, Task: model.TaskSVR}, solver.Options{P: 2}},
	}
	for _, pc := range pairs {
		eng, err := solver.Lookup(pc.engine)
		if err != nil {
			t.Fatalf("%s: %v", pc.engine, err)
		}
		if err := solver.Validate(eng, pc.prob, pc.opts); err == nil {
			t.Errorf("%s x %s: Validate accepted an unsupported option", pc.engine, pc.reason)
		} else if !strings.Contains(err.Error(), pc.engine) {
			t.Errorf("%s x %s: error %q does not name the engine", pc.engine, pc.reason, err)
		}
		// The same rejection must surface from Train (engines call Validate
		// first), so no engine can drift out of the contract.
		if _, err := eng.Train(context.Background(), pc.prob, pc.opts); err == nil {
			t.Errorf("%s x %s: Train accepted an unsupported option", pc.engine, pc.reason)
		}
	}
}
