package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	_ "repro/internal/engines" // registers the engines trainAndSave names
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// trainAndSave trains engine on prob, writes the model and the rows (raw
// targets when raw is set) to dir, and returns the model and both paths.
func trainAndSave(t *testing.T, dir, name, engine string, prob solver.Problem, raw bool) (*model.Model, string, string) {
	t.Helper()
	opts := solver.Options{C: 10, Eps: 1e-3, Task: solver.TaskOptions{Epsilon: 0.1, Nu: 0.1}}
	res, err := solver.Train(context.Background(), engine, prob, opts)
	if err != nil {
		t.Fatal(err)
	}
	modelPath := filepath.Join(dir, name+".model")
	if err := res.Model.Save(modelPath); err != nil {
		t.Fatal(err)
	}
	x := prob.X.(*sparse.Matrix)
	dataPath := filepath.Join(dir, name+".data")
	save := dataset.SaveLibsvmFile
	if raw {
		save = dataset.SaveLibsvmValuesFile
	}
	if err := save(dataPath, x, prob.Y); err != nil {
		t.Fatal(err)
	}
	return res.Model, modelPath, dataPath
}

// predict runs svmpredict in process and returns its stdout and the lines
// of its -out file.
func predict(t *testing.T, modelPath, dataPath string, extra ...string) (string, []string) {
	t.Helper()
	outPath := filepath.Join(t.TempDir(), "out.pred")
	var stdout bytes.Buffer
	args := append([]string{"-model", modelPath, "-data", dataPath, "-out", outPath}, extra...)
	if err := run(args, &stdout); err != nil {
		t.Fatalf("svmpredict %s: %v", strings.Join(args, " "), err)
	}
	b, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	return stdout.String(), strings.Fields(string(b))
}

// TestRunReportsByTask: each task kind gets its own report line, computed
// here from the model directly. A classifier reports label accuracy; an
// SVR model reports EvaluateRegression's metrics against the raw targets
// (sign-mapped targets would give a different MSE) and writes its
// estimates; a one-class model reports the share of rows it flags.
func TestRunReportsByTask(t *testing.T) {
	dir := t.TempDir()
	taskKernel := kernel.Params{Type: kernel.Gaussian, Gamma: 0.5, Degree: 3}

	t.Run("classifier", func(t *testing.T) {
		ds := dataset.MustGenerate("blobs", 0.1)
		prob := solver.Problem{X: ds.X, Y: ds.Y, Kernel: kernel.FromSigma2(ds.Sigma2)}
		m, modelPath, dataPath := trainAndSave(t, dir, "cls", "smo", prob, false)
		correct := 0
		for i := 0; i < ds.X.Rows(); i++ {
			if m.Predict(ds.X.RowView(i)) == ds.Y[i] {
				correct++
			}
		}
		want := fmt.Sprintf("accuracy = %.4f%% (%d/%d) with %d support vectors\n",
			100*float64(correct)/float64(ds.X.Rows()), correct, ds.X.Rows(), m.NumSV())
		if got, _ := predict(t, modelPath, dataPath, "-chunk", "7"); got != want {
			t.Errorf("stdout %q, want %q", got, want)
		}
	})

	t.Run("svr", func(t *testing.T) {
		x, z, err := dataset.GenerateRegression(120, 4, 0.05, 3)
		if err != nil {
			t.Fatal(err)
		}
		prob := solver.Problem{X: x, Y: z, Kernel: taskKernel, Task: model.TaskSVR}
		m, modelPath, dataPath := trainAndSave(t, dir, "svr", "tasks", prob, true)
		mt, err := m.EvaluateRegression(x, z)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("mse = %.6g, mae = %.6g, r2 = %.4f (%d rows) with %d support vectors\n",
			mt.MSE, mt.MAE, mt.R2, x.Rows(), m.NumSV())
		got, lines := predict(t, modelPath, dataPath)
		if got != want {
			t.Errorf("stdout %q, want %q", got, want)
		}
		if mt.R2 <= 0.5 {
			t.Errorf("R2 %v: the model does not fit its own training targets", mt.R2)
		}
		if len(lines) != x.Rows() {
			t.Fatalf("%d predictions for %d rows", len(lines), x.Rows())
		}
		for i, line := range lines {
			if want := fmt.Sprint(m.PredictRegression(x.RowView(i))); line != want {
				t.Fatalf("row %d: wrote %s, want the estimate %s", i, line, want)
			}
		}
	})

	t.Run("oneclass", func(t *testing.T) {
		x, l, err := dataset.GenerateOneClass(120, 4, 0.05, 3)
		if err != nil {
			t.Fatal(err)
		}
		prob := solver.Problem{X: x, Y: l, Kernel: taskKernel, Task: model.TaskOneClass}
		m, modelPath, dataPath := trainAndSave(t, dir, "oc", "tasks", prob, true)
		outliers := 0
		for i := 0; i < x.Rows(); i++ {
			if m.AnomalyScore(x.RowView(i)) < 0 {
				outliers++
			}
		}
		if outliers == 0 {
			t.Fatal("the model flags no row")
		}
		want := fmt.Sprintf("outliers = %.4f%% (%d/%d) with %d support vectors\n",
			100*float64(outliers)/float64(x.Rows()), outliers, x.Rows(), m.NumSV())
		if got, _ := predict(t, modelPath, dataPath); got != want {
			t.Errorf("stdout %q, want %q", got, want)
		}
	})
}
