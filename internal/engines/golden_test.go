package engines_test

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/tasks"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.model from the current code")

// goldenCase trains one model; the golden file holds its model.Save bytes.
type goldenCase struct {
	name  string
	train func(t *testing.T) *model.Model
}

// TestGoldenModels pins the bytes of one model per engine configuration:
// every registered engine and its option families, the out-of-core linear
// path, both task kinds and an incremental update of each task kind. A
// refactor of the engine layer must leave every file byte-identical; run
// with -update only when a numerical change is intended.
//
// The files are amd64 output. Other architectures may fuse multiply-adds,
// which changes the last bits of the floats, so the test skips there.
func TestGoldenModels(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden models are amd64 output; GOARCH=%s may fuse multiply-adds", runtime.GOARCH)
	}
	ds := dataset.MustGenerate("blobs", 0.1)
	rbf := solver.Problem{X: ds.X, Y: ds.Y, Kernel: kernel.FromSigma2(ds.Sigma2)}
	lin := solver.Problem{X: ds.X, Y: ds.Y, Kernel: kernel.Params{Type: kernel.Linear}}
	base := solver.Options{C: ds.C, Eps: 1e-3, Seed: 42, Workers: 2}
	with := func(mut func(*solver.Options)) solver.Options {
		o := base
		mut(&o)
		return o
	}
	engine := func(name string, prob solver.Problem, opts solver.Options) func(*testing.T) *model.Model {
		return func(t *testing.T) *model.Model {
			res, err := solver.Train(context.Background(), name, prob, opts)
			if err != nil {
				t.Fatal(err)
			}
			return res.Model
		}
	}

	svrX, svrZ, err := dataset.GenerateRegression(150, 4, 0.05, 11)
	if err != nil {
		t.Fatal(err)
	}
	ocX, _, err := dataset.GenerateOneClass(200, 4, 0.05, 13)
	if err != nil {
		t.Fatal(err)
	}
	taskKernel := kernel.FromSigma2(2)
	svr := solver.Problem{X: svrX, Y: svrZ, Kernel: taskKernel, Task: model.TaskSVR}
	svrOpts := solver.Options{C: 10, Eps: 1e-3, Workers: 2, Task: solver.TaskOptions{Epsilon: 0.1}}
	oneClass := solver.Problem{X: ocX, Kernel: taskKernel, Task: model.TaskOneClass}
	ocOpts := solver.Options{Eps: 1e-3, Workers: 2, Task: solver.TaskOptions{Nu: 0.2}}

	cases := []goldenCase{
		{"core-p2", engine("core", rbf, with(func(o *solver.Options) { o.P = 2; o.Heuristic = "Multi5pc" }))},
		{"smo", engine("smo", rbf, base)},
		{"smo2", engine("smo2", rbf, base)},
		{"dc", engine("dc", rbf, with(func(o *solver.Options) { o.DC.Clusters = 4 }))},
		{"dc-polish-full", engine("dc", rbf, with(func(o *solver.Options) { o.DC = solver.DCOptions{Clusters: 4, PolishFull: true} }))},
		{"dc-smo2", engine("dc", rbf, with(func(o *solver.Options) { o.DC = solver.DCOptions{Clusters: 4, SubSolver: "smo2"} }))},
		{"dc-linear-kernel", engine("dc", lin, with(func(o *solver.Options) { o.DC.Clusters = 4 }))},
		{"linear-dcd", engine("linear", lin, base)},
		{"linear-miso", engine("linear", lin, with(func(o *solver.Options) { o.Linear.Variant = "miso" }))},
		{"linear-ooc", func(t *testing.T) *model.Model {
			ooc := spill(t, ds.X, 4)
			return engine("linear", solver.Problem{X: ooc, Y: ds.Y, Kernel: lin.Kernel}, base)(t)
		}},
		{"svr", engine("tasks", svr, svrOpts)},
		{"oneclass", engine("tasks", oneClass, ocOpts)},
		{"update-csvc", func(t *testing.T) *model.Model {
			nBase := ds.X.Rows() * 4 / 5
			prefix, err := ds.X.SubMatrix(0, nBase)
			if err != nil {
				t.Fatal(err)
			}
			b := engine("smo", solver.Problem{X: prefix, Y: ds.Y[:nBase], Kernel: rbf.Kernel}, base)(t)
			return update(t, b, ds.X, ds.Y)
		}},
		{"update-svr", func(t *testing.T) *model.Model {
			nBase := svrX.Rows() * 4 / 5
			prefix, err := svrX.SubMatrix(0, nBase)
			if err != nil {
				t.Fatal(err)
			}
			b := engine("tasks", solver.Problem{X: prefix, Y: svrZ[:nBase], Kernel: taskKernel, Task: model.TaskSVR}, svrOpts)(t)
			return update(t, b, svrX, svrZ)
		}},
		{"update-oneclass", func(t *testing.T) *model.Model {
			nBase := ocX.Rows() * 4 / 5
			prefix, err := ocX.SubMatrix(0, nBase)
			if err != nil {
				t.Fatal(err)
			}
			b := engine("tasks", solver.Problem{X: prefix, Kernel: taskKernel, Task: model.TaskOneClass}, ocOpts)(t)
			return update(t, b, ocX, nil)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join("testdata", tc.name+".model")
			out := filepath.Join(t.TempDir(), "out.model")
			if err := tc.train(t).Save(out); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("model bytes differ from %s (%d vs %d bytes)", path, len(got), len(want))
			}
		})
	}
}

// spill writes x to an out-of-core matrix in blocks row blocks with a
// one-block resident budget, so training churns the block cache.
func spill(t *testing.T, x *sparse.Matrix, blocks int) *sparse.OOCMatrix {
	t.Helper()
	w, err := sparse.NewOOCWriter(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	n := x.Rows()
	for b := 0; b < blocks; b++ {
		v, err := x.RowRangeView(b*n/blocks, (b+1)*n/blocks)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AppendBlock(v); err != nil {
			t.Fatal(err)
		}
	}
	m, err := w.Finish(x.Dim())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// update runs an incremental warm-start update of base on x (its training
// rows followed by the appended ones).
func update(t *testing.T, base *model.Model, x *sparse.Matrix, labels []float64) *model.Model {
	t.Helper()
	res, err := tasks.Update(base, x, labels, solver.Options{Eps: 1e-3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return res.Model
}
