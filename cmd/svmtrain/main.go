// Command svmtrain trains an SVM classifier with any registered solver
// engine and writes a model file.
//
// Train a libsvm-format file with the best heuristic on 8 ranks:
//
//	svmtrain -data train.libsvm -model out.model -p 8 -heuristic Multi5pc -c 10 -sigma2 4
//
// Train a built-in synthetic dataset (hyper-parameters come from its spec):
//
//	svmtrain -dataset mnist38 -dataset-scale 0.05 -model out.model -p 4
//
// The -solver flag selects an engine from the solver registry
// (-list-solvers prints the table): "core" (the paper's distributed
// algorithm, default), "smo" (the libsvm-enhanced baseline), "smo2" (the
// baseline with libsvm's second-order working-set selection), "dc"
// (divide-and-conquer: cluster, solve sub-problems in parallel, coalesce
// support vectors, polish), or "linear" (the explicit-w fast path for
// linear kernels: dual coordinate descent or the incremental MISO primal
// solver, no kernel matrix, dense-hyperplane model):
//
//	svmtrain -dataset blobs -dataset-scale 1 -solver dc -dc-clusters 8 -seed 42
//	svmtrain -dataset rcv1 -dataset-scale 0.1 -solver linear -linear-variant dcd
//
// Engine-conditional flags are validated against the selected engine's
// declared capabilities before any data loads: -stream needs a streaming
// engine, -checkpoint-dir a checkpointing one, -heuristic a Table II
// engine, and so on — the error names the engines that would accept the
// flag.
//
// The -verify flag re-checks the trained model against the QP with the
// correctness oracle (per-sample KKT violations and the duality gap) and
// prints the report; the exit status is nonzero if the model is not an
// eps-approximate optimum. Linear-only engines are verified against their
// own linear QP (hinge for dcd, squared hinge for miso) via the same
// oracle package:
//
//	svmtrain -dataset blobs -dataset-scale 0.5 -verify
//
// The -task flag selects the "tasks" engine: "svr" trains epsilon-SVR on
// continuous -data labels, "oneclass" trains a nu one-class detector
// (labels ignored). -update-from performs an incremental warm-start update
// of an existing model (any task kind) on its training rows plus appended
// rows. Both run through the same path as every engine — the same
// capability checks, checkpoints, save and summary — and -verify routes
// each task kind through its own oracle verifier:
//
//	svmtrain -task svr -data reg.train -c 10 -svr-epsilon 0.1 -verify
//	svmtrain -task oneclass -data mix.train -nu 0.1 -verify
//	svmtrain -update-from svm.model -data grown.train -verify
//
// With -checkpoint-dir the run periodically writes a crash-consistent
// checkpoint (two generations are retained); a later invocation with the
// same data and -resume warm-starts from the newest valid snapshot. The
// -inject-crash-* flags drive the mpi fault injector for recovery drills:
//
//	svmtrain -dataset blobs -checkpoint-dir ckpt -checkpoint-every 25 \
//	    -inject-crash-rank 1 -inject-crash-at 798    # fails mid-training
//	svmtrain -dataset blobs -checkpoint-dir ckpt -resume -verify
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/cv"
	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/linear"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/oracle"
	"repro/internal/probability"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/tasks"

	_ "repro/internal/engines"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "svmtrain:", err)
		os.Exit(1)
	}
}

// run parses args, trains, writes the model and prints the summary (and the
// oracle report with -verify) to stdout. Every engine and task kind goes
// through this one path; -task and -update-from only select the "tasks"
// engine, the raw-label reader and the warm-start update.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("svmtrain", flag.ContinueOnError)
	var (
		dataPath  = fs.String("data", "", "training data in libsvm format")
		dsName    = fs.String("dataset", "", "built-in synthetic dataset name instead of -data")
		dsScale   = fs.Float64("dataset-scale", 0.01, "scale for -dataset generation")
		modelPath = fs.String("model", "svm.model", "output model file")
		tracePath = fs.String("trace", "", "optional output JSON trace (trace-capable engines)")
		solverSel = fs.String("solver", "core", "registered solver engine; -list-solvers prints the table")
		listSol   = fs.Bool("list-solvers", false, "print the registered solver engines with capabilities and exit")
		p         = fs.Int("p", 4, "number of ranks (distributed engines)")
		heuristic = fs.String("heuristic", "Multi5pc", "Table II heuristic name (heuristic-capable engines)")
		c         = fs.Float64("c", 10, "box constraint C")
		sigma2    = fs.Float64("sigma2", 4, "Gaussian kernel width sigma^2 (gamma = 1/(2*sigma^2))")
		kern      = fs.String("kernel", "rbf", "kernel: rbf, linear, polynomial, sigmoid")
		gamma     = fs.Float64("gamma", 0, "explicit kernel gamma (overrides -sigma2 when > 0)")
		coef0     = fs.Float64("coef0", 0, "polynomial/sigmoid coef0")
		degree    = fs.Int("degree", 3, "polynomial degree")
		eps       = fs.Float64("eps", 1e-3, "tolerance epsilon")
		workers   = fs.Int("workers", 0, "worker goroutines (smo-family engines; 0 = all cores)")
		calibrate = fs.Bool("probability", false, "fit Platt probability outputs via 3-fold CV")
		seed      = fs.Int64("seed", 7, "seed for dataset generation, CV fold shuffling, and dc clustering")
		verify    = fs.Bool("verify", false, "after training, verify the model against the QP (KKT violations, duality gap) and print the oracle report; exit nonzero on failure")
		quiet     = fs.Bool("q", false, "suppress the summary")

		ckptDir    = fs.String("checkpoint-dir", "", "directory for crash-consistent training checkpoints (empty = checkpointing off)")
		ckptEvery  = fs.Int64("checkpoint-every", 1000, "iterations between checkpoints (core/smo; dc checkpoints at cluster and level boundaries plus every N polish iterations)")
		ckptMinGap = fs.Duration("checkpoint-min-interval", 100*time.Millisecond, "debounce: skip a checkpoint arriving sooner than this after the previous one (0 = save on every trigger)")
		resume     = fs.Bool("resume", false, "resume from the newest valid checkpoint in -checkpoint-dir instead of starting cold")

		crashRank    = fs.Int("inject-crash-rank", -1, "fault injection: rank to kill (fault-inject-capable engines); -1 = off")
		crashAt      = fs.Int64("inject-crash-at", 0, "fault injection: kill the rank at its Nth point-to-point operation (requires -inject-crash-rank >= 0)")
		crashCluster = fs.Int("inject-crash-cluster", 0, "fault injection: dc cluster whose sub-solve receives the fault plan (dc solver)")

		dcClusters    = fs.Int("dc-clusters", 8, "k-means clusters at the finest dc level")
		dcLevels      = fs.Int("dc-levels", 1, "dc hierarchy depth (level l uses dc-clusters/2^l clusters)")
		dcPolish      = fs.Bool("dc-polish", true, "run the warm-started polish to convergence (false = early stop, polish capped at 100 iterations)")
		dcPolishFull  = fs.Bool("dc-polish-full", false, "polish over the full training set instead of the SV union; slower but eps-optimal on the full QP (required for -verify to pass)")
		dcKernelSpace = fs.Bool("dc-kernel-space", false, "cluster in kernel feature space instead of input space")
		dcSubSolver   = fs.String("dc-subsolver", "core", "dc sub-problem engine: any registered non-composite kernel classifier (core, smo, smo2, ...)")

		linVariant = fs.String("linear-variant", "dcd", `linear solver variant: "dcd" (dual coordinate descent, hinge) or "miso" (incremental primal, squared hinge)`)
		linEpochs  = fs.Int("linear-epochs", 0, "linear solver epoch cap (0 = variant default)")

		taskSel    = fs.String("task", "", `task variant: "svr" (epsilon-SVR regression) or "oneclass" (nu one-class anomaly detection); empty = binary classification. Task models train with the "tasks" engine; -data labels are regression targets for svr and ignored for oneclass`)
		svrEps     = fs.Float64("svr-epsilon", 0.1, "epsilon tube half-width (-task svr)")
		nuParam    = fs.Float64("nu", 0.5, "nu in (0, 1]: upper bound on the training outlier fraction (-task oneclass)")
		updateFrom = fs.String("update-from", "", "incremental update: warm-start from this base model's recovered dual point; -data must hold the base training rows followed by the appended rows (any task kind, including classifiers)")

		streamLoad = fs.Bool("stream", false, "out-of-core load: parse -data in chunks, spill CSR blocks to a temp file, and train with resident memory bounded by -mem-budget (streaming-capable engines; the model is bit-identical to the in-memory path)")
		memBudget  = fs.String("mem-budget", "256MiB", "resident-block budget for -stream (e.g. 8388608, 64MiB, 1G)")
		shards     = fs.Int("shards", 0, "load -data as N shards parsed in parallel: N byte ranges of one file, or N pre-split <data>.NNN-of-NNN files; the core solver trains one rank per shard (-shards must equal -p)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	flagWasSet := func(name string) bool { return set[name] }

	if *listSol {
		return printSolvers(stdout)
	}

	// -task and -update-from select the "tasks" engine; everything else about
	// the run (flag checks, kernel, checkpoints, save, verify) is shared.
	task, ok := map[string]model.Task{"": model.TaskCSVC, "svr": model.TaskSVR, "oneclass": model.TaskOneClass}[*taskSel]
	if !ok {
		return fmt.Errorf("unknown -task %q (valid: svr, oneclass)", *taskSel)
	}
	taskRun := *taskSel != "" || *updateFrom != ""
	if taskRun {
		// Structural rejections; CheckFlags below covers the rest against
		// the tasks engine's capabilities. -resume is listed although that
		// engine checkpoints: the CLI restores classifier snapshots only.
		for _, f := range []string{"solver", "dataset", "probability", "shards", "resume"} {
			if flagWasSet(f) {
				return fmt.Errorf("-%s does not apply to -task/-update-from runs", f)
			}
		}
		if *dataPath == "" {
			return fmt.Errorf("-task/-update-from requires -data")
		}
		*solverSel = "tasks"
	}

	// Registry lookup replaces the hand-rolled engine switch; the error
	// lists every registered engine, so a typo is self-correcting.
	eng, err := solver.Lookup(*solverSel)
	if err != nil {
		return fmt.Errorf("unknown -solver %q (registered: %s)", *solverSel, strings.Join(solver.Names(), ", "))
	}
	caps := eng.Capabilities()
	if !taskRun && !caps.Has(solver.CapClassify) {
		return fmt.Errorf("-solver %s does not train binary classifiers; it serves -task runs (classifier engines: %s)",
			eng.Name(), strings.Join(solver.WithCapability(solver.CapClassify), ", "))
	}

	// Every engine-conditional flag is validated against the engine's
	// declared capabilities, from one table shared with svmtune — before
	// any data is touched, so typos fail in milliseconds, not after a
	// multi-minute load.
	if err := solver.CheckFlags(eng, flagWasSet, solver.TrainFlagRules); err != nil {
		return err
	}

	// Structural checks that relate flags to each other (capability checks
	// above relate flags to the engine).
	if caps.Has(solver.CapHeuristics) {
		if _, err := core.HeuristicByName(*heuristic); err != nil {
			return err
		}
	}
	var linVar linear.Variant
	if caps.Has(solver.CapLinearVariants) {
		if linVar, err = linear.ParseVariant(*linVariant); err != nil {
			return err
		}
	}
	if !caps.Has(solver.CapKernels) {
		// A linear-only engine is the linear kernel by construction; an
		// explicit non-linear -kernel is a contradiction, not a request.
		if flagWasSet("kernel") && *kern != "linear" {
			return fmt.Errorf("-solver %s trains a linear model; -kernel %s is incompatible", eng.Name(), *kern)
		}
		*kern = "linear"
	}
	kt, err := kernel.ParseType(*kern)
	if err != nil {
		return err
	}
	if *streamLoad {
		if *dataPath == "" {
			return fmt.Errorf("-stream requires -data (built-in datasets are generated in memory)")
		}
		if *shards > 0 {
			return fmt.Errorf("-stream and -shards are mutually exclusive")
		}
		if *calibrate {
			return fmt.Errorf("probability calibration: -probability needs in-memory data; drop -stream")
		}
	} else if flagWasSet("mem-budget") {
		return fmt.Errorf("-mem-budget requires -stream")
	}
	if *shards > 0 {
		if *dataPath == "" {
			return fmt.Errorf("-shards requires -data")
		}
		if eng.Name() == "core" && *shards != *p {
			return fmt.Errorf("-solver core trains one rank per shard: -shards %d must equal -p %d", *shards, *p)
		}
	}
	if *resume && *ckptDir == "" {
		return fmt.Errorf("-resume requires -checkpoint-dir")
	}
	var faults mpi.FaultPlan
	if *crashRank >= 0 {
		if *crashAt <= 0 {
			return fmt.Errorf("-inject-crash-rank requires -inject-crash-at > 0")
		}
		faults = mpi.FaultPlan{CrashRank: *crashRank, CrashAtOp: *crashAt}
	}

	// An update inherits its task kind, kernel and hyper-parameters from the
	// base model, so the base is read (and checked against -task) before
	// the data.
	var base *model.Model
	if *updateFrom != "" {
		if base, err = model.Load(*updateFrom); err != nil {
			return fmt.Errorf("update base: %w", err)
		}
		if *taskSel != "" && base.TaskKind() != task {
			return fmt.Errorf("-task %s but base model %s is %s", *taskSel, *updateFrom, base.TaskKind())
		}
		task = base.TaskKind()
	}

	// An explicit -seed redraws built-in datasets from the same distribution
	// with that seed; otherwise each spec's registered seed applies, keeping
	// default runs byte-identical across invocations.
	genSeed := int64(0)
	if flagWasSet("seed") {
		genSeed = *seed
	}
	var (
		x           *sparse.Matrix
		y           []float64
		oocX        *sparse.OOCMatrix
		cHyper      float64
		sigma2Hyper float64
	)
	switch {
	case task != model.TaskCSVC:
		// Labels are loaded verbatim: SVR targets are continuous and must
		// not be sign-mapped the way the classifier reader does.
		if x, y, err = dataset.LoadLibsvmValuesFile(*dataPath); err != nil {
			return err
		}
	case *streamLoad:
		budget, berr := dataset.ParseByteSize(*memBudget)
		if berr != nil {
			return berr
		}
		oocX, y, err = dataset.OpenOOC(*dataPath, dataset.OOCOptions{MemBudget: budget})
		if err != nil {
			return err
		}
		defer oocX.Close()
	case *shards > 0:
		// Parse the shards in parallel and splice them in file row order:
		// every engine then trains, partitions and fingerprints exactly as
		// it would the unsharded file.
		sh, serr := dataset.LoadSharded(*dataPath, *shards)
		if serr != nil {
			return serr
		}
		x, y = dataset.ConcatShards(sh)
	default:
		x, y, cHyper, sigma2Hyper, err = loadData(*dataPath, *dsName, *dsScale, genSeed)
		if err != nil {
			return err
		}
	}
	if *dsName != "" {
		// The built-in specs carry their Table III hyper-parameters;
		// explicit flags still win if the user changed the defaults.
		if !flagWasSet("c") {
			*c = cHyper
		}
		if !flagWasSet("sigma2") {
			*sigma2 = sigma2Hyper
		}
	}

	kp := kernel.Params{Type: kt, Gamma: *gamma, Coef0: *coef0, Degree: *degree}
	if kt == kernel.Gaussian && *gamma <= 0 {
		kp = kernel.FromSigma2(*sigma2)
	}

	// Checkpointing, resume and fault injection are expressed once in the
	// shared Options; each engine consumes the fields its capabilities
	// declare.
	var ckptW *ckpt.Writer
	if *ckptDir != "" {
		if ckptW, err = ckpt.NewWriter(*ckptDir); err != nil {
			return err
		}
		ckptW.SetMinInterval(*ckptMinGap)
	}
	var resumeSt *ckpt.State
	if *resume {
		st, path, err := ckpt.Load(*ckptDir)
		if err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		if err := st.Matches(x, y); err != nil {
			return fmt.Errorf("resume: checkpoint does not match the training data: %w", err)
		}
		resumeSt = st
		if !*quiet {
			fmt.Fprintf(stdout, "resuming from %s: solver=%s iteration=%d\n", path, st.Solver, st.Iteration)
		}
	}

	opts := solver.Options{
		C: *c, Eps: *eps, Seed: *seed, Workers: *workers,
		Control: solver.Control{Checkpoint: ckptW, CheckpointEvery: *ckptEvery},
		Faults:  faults,
		DC: solver.DCOptions{
			Clusters: *dcClusters, Levels: *dcLevels, KernelSpace: *dcKernelSpace,
			SubSolver: *dcSubSolver, PolishFull: *dcPolishFull, SubFaultCluster: *crashCluster,
		},
		Linear: solver.LinearOptions{Variant: *linVariant, MaxEpochs: *linEpochs},
		Task:   solver.TaskOptions{Epsilon: *svrEps, Nu: *nuParam},
	}
	if caps.Has(solver.CapHeuristics) {
		opts.Heuristic = *heuristic
	}
	if caps.Has(solver.CapDistributed) {
		opts.P = *p
	}
	if caps.Has(solver.CapTrace) {
		opts.RecordTrace = *tracePath != ""
	}
	if !*dcPolish {
		opts.DC.PolishMaxIter = 100
	}
	if resumeSt != nil {
		opts.InitialAlpha = resumeSt.Alpha
	}

	prob := solver.Problem{Y: y, Kernel: kp, Task: task}
	if oocX != nil {
		prob.X = oocX
	} else {
		prob.X = x
	}

	start := time.Now()
	var stopHeapSampler func() uint64
	if oocX != nil {
		// Out-of-core: same engine, row access served from the spill
		// file's LRU. Training is deterministic in (data, seed), so the
		// model is byte-identical to the in-memory path.
		stopHeapSampler = dataset.SampleLiveHeap()
	}
	var res solver.Result
	if base != nil {
		res, err = tasks.Update(base, x, y, opts)
	} else {
		res, err = eng.Train(context.Background(), prob, opts)
	}
	var summary string
	if oocX != nil {
		peakHeap := stopHeapSampler()
		loads, hits, evictions := oocX.Stats()
		summary = fmt.Sprintf("stream: data=%s budget=%s peak-heap=%s blocks=%d loads=%d hits=%d evictions=%d\n  ",
			dataset.FormatByteSize(oocX.ByteSize()), *memBudget,
			dataset.FormatByteSize(int64(peakHeap)), oocX.Blocks(), loads, hits, evictions)
	}
	if err != nil {
		return err
	}
	m := res.Model
	summary += res.Summary
	if *tracePath != "" && res.Trace != nil {
		res.Trace.Dataset = *dsName
		if err := res.Trace.SaveJSON(*tracePath); err != nil {
			return err
		}
	}
	if *calibrate {
		splits, err := cv.StratifiedKFold(y, 3, *seed)
		if err != nil {
			return fmt.Errorf("probability calibration: %w", err)
		}
		// CV folds are different datasets: they must train cold and
		// must not write into the main run's checkpoint directory.
		fopts := opts
		fopts.Checkpoint, fopts.InitialAlpha = nil, nil
		fopts.RecordTrace = false
		fopts.Faults = mpi.FaultPlan{}
		sig, err := probability.CalibrateCV(x, y, splits, func(fx *sparse.Matrix, fy []float64) (*model.Model, error) {
			fres, err := eng.Train(context.Background(), solver.Problem{X: fx, Y: fy, Kernel: kp}, fopts)
			if err != nil {
				return nil, err
			}
			return fres.Model, nil
		})
		if err != nil {
			return fmt.Errorf("probability calibration: %w", err)
		}
		m.ProbA, m.ProbB, m.HasProb = sig.A, sig.B, true
		summary += fmt.Sprintf(" probA=%.4f probB=%.4f", sig.A, sig.B)
	}

	if err := m.Save(*modelPath); err != nil {
		return err
	}
	if !*quiet {
		rows := 0
		if x != nil {
			rows = x.Rows()
		} else if oocX != nil {
			rows = oocX.Rows()
		}
		what := "trained"
		if base != nil {
			what = fmt.Sprintf("updated %s on", m.TaskKind())
		} else if taskRun {
			what = fmt.Sprintf("trained %s on", m.TaskKind())
		}
		fmt.Fprintf(stdout, "%s %d samples in %v: %s\n", what, rows, time.Since(start).Round(time.Millisecond), summary)
		fmt.Fprintf(stdout, "model written to %s\n", *modelPath)
	}
	if !*verify {
		return nil
	}
	if oocX != nil {
		// The oracle recomputes objectives over every row; materialize
		// the spilled matrix (verification is a deliberate exception to
		// the memory budget).
		if x, err = oocX.Materialize(); err != nil {
			return fmt.Errorf("verify: %w", err)
		}
	}
	rep, err := verifyModel(m, res.Alpha, x, y, !caps.Has(solver.CapKernels), linVar, *eps, *workers)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	fmt.Fprintln(stdout, rep)
	if err := rep.Check(); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	return nil
}

// verifyModel checks m against the QP it was trained on, keyed on the
// model's task kind (and, for classifiers, on whether a linear-only engine
// produced it). The QP is rebuilt from the model's own kernel and
// hyper-parameters, not the flags: an -update-from run inherits the base
// model's, and verifying the right model against a different kernel reports
// garbage with full confidence. alpha is the linear engines' dual point.
func verifyModel(m *model.Model, alpha []float64, x *sparse.Matrix, y []float64, linearOnly bool, linVar linear.Variant, eps float64, workers int) (interface {
	String() string
	Check() error
}, error) {
	switch {
	case m.TaskKind() == model.TaskSVR:
		return oracle.SVRProblem{X: x, Z: y, Kernel: m.Kernel, C: m.C, Epsilon: m.Epsilon, Eps: eps, Workers: workers}.VerifyModel(m)
	case m.TaskKind() == model.TaskOneClass:
		return oracle.OneClassProblem{X: x, Kernel: m.Kernel, Nu: m.Nu, Eps: eps, Workers: workers}.VerifyModel(m)
	case linearOnly:
		loss := oracle.HingeLoss
		if linVar == linear.MISO {
			loss = oracle.SquaredHingeLoss
		}
		return oracle.LinearProblem{X: x, Y: y, C: m.C, Eps: eps, Loss: loss}.VerifyLinearModel(m, alpha)
	default:
		return oracle.Problem{X: x, Y: y, Kernel: m.Kernel, C: m.C, Eps: eps}.VerifyModel(m)
	}
}

// printSolvers writes the registry table: one row per engine with its
// declared capabilities and its when-to-use line. CI's engines job and the
// README's "Choosing a solver" table are generated from this output.
func printSolvers(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NAME\tCAPABILITIES\tWHEN TO USE")
	for _, e := range solver.Engines() {
		fmt.Fprintf(tw, "%s\t%s\t%s\n", e.Name(), e.Capabilities(), solver.Describe(e))
	}
	return tw.Flush()
}

func loadData(dataPath, dsName string, dsScale float64, seed int64) (*sparse.Matrix, []float64, float64, float64, error) {
	switch {
	case dataPath != "" && dsName != "":
		return nil, nil, 0, 0, fmt.Errorf("use either -data or -dataset, not both")
	case dataPath != "":
		x, y, err := dataset.LoadLibsvmFile(dataPath)
		return x, y, 0, 0, err
	case dsName != "":
		spec, err := dataset.Lookup(dsName)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		ds, err := dataset.GenerateSeeded(spec, dsScale, seed)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		return ds.X, ds.Y, ds.C, ds.Sigma2, nil
	default:
		return nil, nil, 0, 0, fmt.Errorf("one of -data or -dataset is required")
	}
}
