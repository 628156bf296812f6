package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/tasks"
	"repro/internal/trace"
)

// fixture is one training file on disk and the rows it holds.
type fixture struct {
	path string
	x    *sparse.Matrix
	y    []float64
}

// fixtures writes the three kinds of training data run reads: a classifier
// set (blobs, 200 rows), SVR targets and a one-class set, plus a prefix of
// each to train -update-from base models on.
type fixtures struct {
	blobs, blobsBase, svr, svrBase, oc, ocBase fixture
}

func writeFixtures(t *testing.T) fixtures {
	t.Helper()
	dir := t.TempDir()
	write := func(name string, x *sparse.Matrix, y []float64, raw bool) fixture {
		path := filepath.Join(dir, name)
		save := dataset.SaveLibsvmFile
		if raw {
			save = dataset.SaveLibsvmValuesFile
		}
		if err := save(path, x, y); err != nil {
			t.Fatal(err)
		}
		return fixture{path, x, y}
	}
	prefix := func(name string, f fixture, n int, raw bool) fixture {
		x, err := f.x.SubMatrix(0, n)
		if err != nil {
			t.Fatal(err)
		}
		return write(name, x, f.y[:n], raw)
	}
	var fx fixtures
	ds := dataset.MustGenerate("blobs", 0.1)
	fx.blobs = write("blobs.train", ds.X, ds.Y, false)
	fx.blobsBase = prefix("blobs-base.train", fx.blobs, 160, false)
	x, z, err := dataset.GenerateRegression(240, 4, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	fx.svr = write("svr.train", x, z, true)
	fx.svrBase = prefix("svr-base.train", fx.svr, 200, true)
	x, l, err := dataset.GenerateOneClass(240, 4, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	fx.oc = write("oc.train", x, l, true)
	fx.ocBase = prefix("oc-base.train", fx.oc, 200, true)
	return fx
}

// runCLI runs svmtrain in process and returns its stdout.
func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(args, &out)
	return out.String(), err
}

func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	out, err := runCLI(t, args...)
	if err != nil {
		t.Fatalf("svmtrain %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return out
}

// defaultOpts are the solver options svmtrain builds from its flag
// defaults; each case adds what its engine's capabilities enable.
func defaultOpts() solver.Options {
	return solver.Options{
		C: 10, Eps: 1e-3, Seed: 7,
		DC:     solver.DCOptions{Clusters: 8, Levels: 1, SubSolver: "core"},
		Linear: solver.LinearOptions{Variant: "dcd"},
		Task:   solver.TaskOptions{Epsilon: 0.1, Nu: 0.5},
	}
}

func sameModelFile(t *testing.T, got string, want *model.Model) {
	t.Helper()
	wantPath := got + ".direct"
	if err := want.Save(wantPath); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(wantPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("model written by run differs from the direct call's model")
	}
}

// TestRunMatchesDirectTraining pins every training path to the library
// call it stands for: the model file run writes is byte-equal to the model
// solver.Train (or tasks.Update) returns on the same rows and options.
func TestRunMatchesDirectTraining(t *testing.T) {
	fx := writeFixtures(t)
	rbf := kernel.FromSigma2(4)
	lin := kernel.Params{Type: kernel.Linear}
	taskKernel := kernel.Params{Type: kernel.Gaussian, Gamma: 0.5, Degree: 3}
	train := func(engine string, prob solver.Problem, mut func(*solver.Options)) func(*testing.T) *model.Model {
		return func(t *testing.T) *model.Model {
			opts := defaultOpts()
			if mut != nil {
				mut(&opts)
			}
			res, err := solver.Train(context.Background(), engine, prob, opts)
			if err != nil {
				t.Fatal(err)
			}
			return res.Model
		}
	}
	update := func(basePath string, f fixture) func(*testing.T) *model.Model {
		return func(t *testing.T) *model.Model {
			base, err := model.Load(basePath)
			if err != nil {
				t.Fatal(err)
			}
			res, err := tasks.Update(base, f.x, f.y, defaultOpts())
			if err != nil {
				t.Fatal(err)
			}
			return res.Model
		}
	}
	cls := solver.Problem{X: fx.blobs.x, Y: fx.blobs.y, Kernel: rbf}
	linProb := solver.Problem{X: fx.blobs.x, Y: fx.blobs.y, Kernel: lin}
	distributed := func(p int) func(*solver.Options) {
		return func(o *solver.Options) { o.P, o.Heuristic = p, "Multi5pc" }
	}
	dir := t.TempDir()
	svrBase := filepath.Join(dir, "svr-base.model")
	ocBase := filepath.Join(dir, "oc-base.model")
	clsBase := filepath.Join(dir, "cls-base.model")
	mustRun(t, "-task", "svr", "-data", fx.svrBase.path, "-gamma", "0.5", "-model", svrBase, "-q")
	mustRun(t, "-task", "oneclass", "-data", fx.ocBase.path, "-gamma", "0.5", "-nu", "0.1", "-model", ocBase, "-q")
	mustRun(t, "-solver", "smo", "-data", fx.blobsBase.path, "-model", clsBase, "-q")

	cases := []struct {
		name string
		args []string
		want func(*testing.T) *model.Model
		out  string // expected in stdout
	}{
		{"core", []string{"-data", fx.blobs.path, "-p", "2"}, train("core", cls, distributed(2)),
			"trained 200 samples in "},
		{"smo", []string{"-data", fx.blobs.path, "-solver", "smo"}, train("smo", cls, nil), "cache-hit="},
		{"dc", []string{"-data", fx.blobs.path, "-solver", "dc"}, train("dc", cls, distributed(4)), "coalesced-SVs="},
		{"linear", []string{"-data", fx.blobs.path, "-solver", "linear", "-linear-variant", "miso", "-verify"},
			train("linear", linProb, func(o *solver.Options) { o.Linear.Variant = "miso" }), "linear oracle report (OK): loss=squared-hinge"},
		{"stream", []string{"-data", fx.blobs.path, "-solver", "linear", "-stream", "-mem-budget", "2KiB", "-verify"},
			train("linear", linProb, nil), "stream: data="},
		{"shards-core", []string{"-data", fx.blobs.path, "-shards", "2", "-p", "2"}, train("core", cls, distributed(2)), "trained 200 samples"},
		{"shards-linear", []string{"-data", fx.blobs.path, "-shards", "2", "-solver", "linear"}, train("linear", linProb, nil), "trained 200 samples"},
		{"svr", []string{"-task", "svr", "-data", fx.svr.path, "-gamma", "0.5", "-verify"},
			train("tasks", solver.Problem{X: fx.svr.x, Y: fx.svr.y, Kernel: taskKernel, Task: model.TaskSVR}, nil),
			"trained epsilon_svr on 240 samples in "},
		{"oneclass", []string{"-task", "oneclass", "-data", fx.oc.path, "-gamma", "0.5", "-nu", "0.1", "-verify"},
			train("tasks", solver.Problem{X: fx.oc.x, Y: fx.oc.y, Kernel: taskKernel, Task: model.TaskOneClass},
				func(o *solver.Options) { o.Task.Nu = 0.1 }),
			"trained one_class on 240 samples in "},
		{"update-svr", []string{"-update-from", svrBase, "-task", "svr", "-data", fx.svr.path, "-verify"},
			update(svrBase, fx.svr), "updated epsilon_svr on 240 samples in "},
		{"update-oneclass", []string{"-update-from", ocBase, "-data", fx.oc.path, "-verify"},
			update(ocBase, fx.oc), "updated one_class on 240 samples in "},
		{"update-classifier", []string{"-update-from", clsBase, "-data", fx.blobs.path, "-verify"},
			update(clsBase, fx.blobs), "updated c_svc on 200 samples in "},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "out.model")
			out := mustRun(t, append(tc.args, "-model", path)...)
			if !strings.Contains(out, tc.out) || !strings.Contains(out, "model written to "+path) {
				t.Errorf("stdout lacks %q:\n%s", tc.out, out)
			}
			if strings.Contains(out, "FAIL") {
				t.Errorf("oracle failed:\n%s", out)
			}
			sameModelFile(t, path, tc.want(t))
		})
	}
}

// TestRunCheckpointCrashResume drives the recovery drill: a rank crash
// fails the run after a checkpoint is written, and -resume converges from
// that snapshot to a verified optimum.
func TestRunCheckpointCrashResume(t *testing.T) {
	fx := writeFixtures(t)
	dir := t.TempDir()
	ck := filepath.Join(dir, "ck")
	common := []string{"-data", fx.blobs.path, "-p", "2", "-checkpoint-dir", ck, "-model", filepath.Join(dir, "m.model")}
	_, err := runCLI(t, append(common, "-checkpoint-every", "5", "-checkpoint-min-interval", "0",
		"-inject-crash-rank", "1", "-inject-crash-at", "116")...)
	if err == nil || !strings.Contains(err.Error(), "injected crash") {
		t.Fatalf("crash run: got %v, want an injected crash", err)
	}
	out := mustRun(t, append(common, "-resume", "-verify")...)
	if !strings.Contains(out, "resuming from "+filepath.Join(ck, "checkpoint.ckpt")) || !strings.Contains(out, "oracle report (OK)") {
		t.Fatalf("resume output:\n%s", out)
	}
	// A checkpoint of other data is refused before training.
	_, err = runCLI(t, "-data", fx.blobsBase.path, "-p", "2", "-checkpoint-dir", ck, "-resume", "-model", filepath.Join(dir, "x.model"))
	if err == nil || !strings.Contains(err.Error(), "does not match the training data") {
		t.Fatalf("resume on other data: got %v", err)
	}
	// Sharded loading splices the rows back in file order, so a sharded
	// run's checkpoint carries the whole file's fingerprint and resumes at
	// another shard count.
	cks := filepath.Join(dir, "cks")
	_, err = runCLI(t, "-data", fx.blobs.path, "-shards", "2", "-p", "2", "-checkpoint-dir", cks,
		"-checkpoint-every", "5", "-checkpoint-min-interval", "0",
		"-inject-crash-rank", "1", "-inject-crash-at", "116", "-model", filepath.Join(dir, "s.model"))
	if err == nil || !strings.Contains(err.Error(), "injected crash") {
		t.Fatalf("sharded crash run: got %v, want an injected crash", err)
	}
	out = mustRun(t, "-data", fx.blobs.path, "-shards", "3", "-p", "3", "-checkpoint-dir", cks,
		"-resume", "-verify", "-model", filepath.Join(dir, "s.model"))
	if !strings.Contains(out, "resuming from "+filepath.Join(cks, "checkpoint.ckpt")) || !strings.Contains(out, "oracle report (OK)") {
		t.Fatalf("sharded resume output:\n%s", out)
	}
}

// TestRunExtras covers the outputs beside the model: the registry table,
// built-in datasets, traces, probability outputs, -q, and a failing oracle.
func TestRunExtras(t *testing.T) {
	fx := writeFixtures(t)
	dir := t.TempDir()
	out := mustRun(t, "-list-solvers")
	for _, name := range solver.Names() {
		if !strings.Contains(out, name) {
			t.Errorf("-list-solvers lacks %s:\n%s", name, out)
		}
	}

	tracePath := filepath.Join(dir, "trace.json")
	mustRun(t, "-dataset", "blobs", "-dataset-scale", "0.1", "-seed", "3", "-p", "2",
		"-trace", tracePath, "-model", filepath.Join(dir, "ds.model"))
	if f, err := os.Open(tracePath); err != nil {
		t.Errorf("trace not written: %v", err)
	} else {
		tr, err := trace.Load(f)
		f.Close()
		if err != nil || tr.Dataset != "blobs" {
			t.Errorf("trace not labelled with the -dataset name: %+v, %v", tr, err)
		}
	}

	probPath := filepath.Join(dir, "prob.model")
	out = mustRun(t, "-data", fx.blobs.path, "-probability", "-model", probPath)
	if !strings.Contains(out, "probA=") {
		t.Errorf("no Platt parameters in summary:\n%s", out)
	}
	if m, err := model.Load(probPath); err != nil || !m.HasProb {
		t.Errorf("calibrated model: %v (has prob %v)", err, err == nil && m.HasProb)
	}

	if out := mustRun(t, "-data", fx.blobs.path, "-solver", "smo", "-q", "-model", filepath.Join(dir, "q.model")); out != "" {
		t.Errorf("-q printed %q", out)
	}

	// A polish stopped after 100 iterations is not an eps-optimum of the
	// full QP; -verify must print the report and fail.
	out, err := runCLI(t, "-data", fx.blobs.path, "-solver", "dc", "-dc-polish=false", "-verify",
		"-model", filepath.Join(dir, "dc.model"))
	if err == nil || !strings.HasPrefix(err.Error(), "verify: ") || !strings.Contains(out, "oracle report (FAIL)") {
		t.Errorf("early-stopped dc -verify: err %v\n%s", err, out)
	}
}

// TestRunRejectsBeforeLoading is the rejection matrix: every contradictory
// flag combination fails before the (nonexistent) data file is opened, so a
// late rejection shows up as a file error.
func TestRunRejectsBeforeLoading(t *testing.T) {
	fx := writeFixtures(t)
	dir := t.TempDir()
	svrBase := filepath.Join(dir, "svr.model")
	mustRun(t, "-task", "svr", "-data", fx.svrBase.path, "-gamma", "0.5", "-q", "-model", svrBase)
	missing := filepath.Join(dir, "missing.train")

	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-solver", "nope"}, `unknown -solver "nope"`},
		{[]string{"-solver", "tasks"}, "does not train binary classifiers"},
		{[]string{"-stream"}, "-stream requires a streaming-capable engine"},
		{[]string{"-mem-budget", "1MiB"}, "-mem-budget requires a streaming-capable engine"},
		{[]string{"-solver", "linear", "-checkpoint-dir", dir}, "-checkpoint-dir requires"},
		{[]string{"-solver", "linear", "-checkpoint-every", "5"}, "-checkpoint-every requires"},
		{[]string{"-solver", "linear", "-checkpoint-min-interval", "0"}, "-checkpoint-min-interval requires"},
		{[]string{"-solver", "linear", "-resume"}, "-resume requires"},
		{[]string{"-solver", "linear", "-trace", "t.json"}, "-trace requires"},
		{[]string{"-solver", "smo", "-heuristic", "Original"}, "-heuristic requires"},
		{[]string{"-solver", "smo", "-p", "2"}, "-p requires"},
		{[]string{"-solver", "smo", "-inject-crash-rank", "0"}, "-inject-crash-rank requires"},
		{[]string{"-solver", "smo", "-inject-crash-at", "5"}, "-inject-crash-at requires"},
		{[]string{"-inject-crash-cluster", "1"}, "-inject-crash-cluster requires"},
		{[]string{"-dc-clusters", "4"}, "-dc-clusters requires"},
		{[]string{"-dc-levels", "2"}, "-dc-levels requires"},
		{[]string{"-dc-polish=false"}, "-dc-polish requires"},
		{[]string{"-dc-polish-full"}, "-dc-polish-full requires"},
		{[]string{"-dc-kernel-space"}, "-dc-kernel-space requires"},
		{[]string{"-dc-subsolver", "smo"}, "-dc-subsolver requires"},
		{[]string{"-linear-variant", "miso"}, "-linear-variant requires"},
		{[]string{"-linear-epochs", "3"}, "-linear-epochs requires"},
		{[]string{"-svr-epsilon", "0.2"}, "-svr-epsilon requires a svr-capable engine"},
		{[]string{"-nu", "0.2"}, "-nu requires a one-class-capable engine"},
		{[]string{"-heuristic", "Bogus"}, "Bogus"},
		{[]string{"-solver", "linear", "-linear-variant", "bogus"}, "bogus"},
		{[]string{"-solver", "linear", "-kernel", "rbf"}, "-kernel rbf is incompatible"},
		{[]string{"-kernel", "bogus"}, "bogus"},
		{[]string{"-solver", "linear", "-stream", "-shards", "2"}, "mutually exclusive"},
		{[]string{"-solver", "linear", "-stream", "-probability"}, "-probability needs in-memory data"},
		{[]string{"-solver", "linear", "-mem-budget", "1MiB"}, "-mem-budget requires -stream"},
		{[]string{"-solver", "linear", "-stream", "-mem-budget", "lots"}, `byte size "lots"`},
		{[]string{"-solver", "linear", "-stream", "-mem-budget", "0"}, "memory budget 0 bytes"},
		{[]string{"-shards", "2", "-p", "4"}, "-shards 2 must equal -p 4"},
		{[]string{"-resume"}, "-resume requires -checkpoint-dir"},
		{[]string{"-inject-crash-rank", "1"}, "-inject-crash-rank requires -inject-crash-at > 0"},
		{[]string{"-dataset", "blobs"}, "either -data or -dataset"},
		{[]string{"-task", "svr", "-solver", "core"}, "-solver does not apply to -task"},
		{[]string{"-task", "svr", "-dataset", "blobs"}, "-dataset does not apply to -task"},
		{[]string{"-task", "svr", "-probability"}, "-probability does not apply to -task"},
		{[]string{"-task", "svr", "-shards", "2"}, "-shards does not apply to -task"},
		{[]string{"-task", "svr", "-resume"}, "-resume does not apply to -task"},
		{[]string{"-task", "svr", "-stream"}, "-stream requires a streaming-capable engine; -solver tasks"},
		{[]string{"-task", "oneclass", "-trace", "t.json"}, "-trace requires"},
		{[]string{"-task", "oneclass", "-p", "2"}, "-p requires"},
		{[]string{"-task", "oneclass", "-heuristic", "Original"}, "-heuristic requires"},
		{[]string{"-task", "svr", "-dc-clusters", "4"}, "-dc-clusters requires"},
		{[]string{"-update-from", svrBase, "-solver", "smo"}, "-solver does not apply to -task"},
		{[]string{"-update-from", svrBase, "-p", "2"}, "-p requires"},
		{[]string{"-update-from", svrBase, "-task", "oneclass"}, "base model " + svrBase + " is epsilon_svr"},
		{[]string{"-update-from", filepath.Join(dir, "missing.model")}, "update base: "},
		{[]string{"-task", "foo"}, `unknown -task "foo"`},
		{[]string{"-task", "foo", "-update-from", svrBase}, `unknown -task "foo"`},
		{[]string{"-task", "foo", "-update-from", filepath.Join(dir, "missing.model")}, `unknown -task "foo"`},
	}
	for _, tc := range cases {
		out, err := runCLI(t, append([]string{"-data", missing, "-model", filepath.Join(dir, "never.model")}, tc.args...)...)
		switch {
		case err == nil:
			t.Errorf("%v: accepted", tc.args)
		case strings.Contains(err.Error(), missing):
			t.Errorf("%v: rejected only after opening the data: %v", tc.args, err)
		case !strings.Contains(err.Error(), tc.want):
			t.Errorf("%v: error %q lacks %q", tc.args, err, tc.want)
		}
		if out != "" {
			t.Errorf("%v: printed %q before rejecting", tc.args, out)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "never.model")); err == nil {
		t.Error("a rejected run wrote a model")
	}

	// Structural rejections that need no data path at all.
	for _, args := range [][]string{
		{"-task", "svr"},
		{"-solver", "linear", "-stream", "-dataset", "blobs"},
		{"-shards", "2", "-p", "2", "-dataset", "blobs"},
		{},
		{"-no-such-flag"},
	} {
		if _, err := runCLI(t, args...); err == nil {
			t.Errorf("%v: accepted", args)
		}
	}
}
