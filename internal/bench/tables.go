package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/perfmodel"
	"repro/internal/solver"
)

// RunTable2 sweeps all thirteen Table II heuristics on one mid-size
// dataset, reporting iterations, shrink behaviour and the modeled time at
// a fixed process count — making the aggressive/average/conservative
// classification measurable.
func RunTable2(o Options) (*Report, error) {
	o = o.withDefaults()
	start := time.Now()
	const benchP = 64
	ds, _, err := loadDataset(o, "codrna")
	if err != nil {
		return nil, err
	}
	machine := calibrate(o, ds)
	factor := float64(dataset.Specs["codrna"].FullTrain) / float64(ds.Train())
	rep := &Report{
		ID:    "table2",
		Title: fmt.Sprintf("Heuristic sweep on %s (modeled at p=%d)", ds.Name, benchP),
		Header: []string{"heuristic", "class", "recon-mode", "iterations", "shrinks", "recons",
			"mean-active", "modeled-t(s)", "SVs"},
	}
	for _, h := range core.Table2() {
		run, err := runTraced(o, ds, h)
		if err != nil {
			return nil, err
		}
		b, err := perfmodel.Evaluate(run.Trace.ScaledUp(factor), benchP, machine)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{
			h.Name, h.Class.String(), h.Recon.String(),
			i64toa(run.Iterations), itoa(run.ShrinkEvents), itoa(run.Reconstructions),
			pct(run.Trace.MeanActiveFraction()), fmt.Sprintf("%.3f", b.Total()), itoa(run.Model.NumSV()),
		})
	}
	rep.Notes = append(rep.Notes, "all heuristics converge to the same solution; they differ in when samples are eliminated")
	rep.Took = time.Since(start)
	return rep, nil
}

// RunTable3 reproduces Table III: dataset characteristics and the
// hyper-parameter settings, alongside the scaled sizes this harness uses.
func RunTable3(o Options) (*Report, error) {
	o = o.withDefaults()
	start := time.Now()
	rep := &Report{
		ID:    "table3",
		Title: "Dataset characteristics and hyper-parameter settings",
		Header: []string{"name", "paper-train", "paper-test", "dim", "density", "C", "sigma^2",
			"harness-train", "harness-test"},
	}
	for _, name := range []string{"higgs", "url", "forest", "realsim", "mnist38", "codrna", "a9a", "w7a", "rcv1", "usps", "mushrooms"} {
		spec := dataset.Specs[name]
		scale := defaultScales[name] * o.Scale
		tr, te := spec.ScaledCounts(scale)
		testStr := "N/A"
		if spec.FullTest > 0 {
			testStr = itoa(spec.FullTest)
		}
		rep.Rows = append(rep.Rows, []string{
			name, itoa(spec.FullTrain), testStr, itoa(spec.Dim), fmt.Sprintf("%.4f", spec.Density),
			fmt.Sprintf("%g", spec.C), fmt.Sprintf("%g", spec.Sigma2), itoa(tr), itoa(te),
		})
	}
	rep.Notes = append(rep.Notes, "paper sizes from Table III; harness sizes are the synthetic stand-ins actually trained")
	rep.Took = time.Since(start)
	return rep, nil
}

// table4Entry pins each small dataset to the process count the paper
// reports it at.
var table4Entries = []struct {
	name string
	p    int
}{
	{"a9a", 16},
	{"rcv1", 64},
	{"usps", 4},
	{"mushrooms", 4},
	{"w7a", 16},
}

// RunTable4 reproduces Table IV: relative speedup to libsvm-sequential
// (one worker) on the smaller datasets, for Default / Shrinking (Worst) /
// Shrinking (Best) at the paper's per-dataset process counts.
func RunTable4(o Options) (*Report, error) {
	o = o.withDefaults()
	start := time.Now()
	rep := &Report{
		ID:     "table4",
		Title:  "Relative speedup to libsvm-sequential (smaller datasets)",
		Header: []string{"name", "Default", "Shrinking(Worst)", "Shrinking(Best)", "procs"},
	}
	for _, e := range table4Entries {
		ds, _, err := loadDataset(o, e.name)
		if err != nil {
			return nil, err
		}
		// Table IV is relative to *sequential* libsvm: one worker.
		base, err := runBaseline(o, ds, 1)
		if err != nil {
			return nil, err
		}
		triple, err := runTriple(o, ds)
		if err != nil {
			return nil, err
		}
		ex, err := newExtrapolation(o, ds, base, 1)
		if err != nil {
			return nil, err
		}
		sd, _, err := ex.modeledSpeedup(triple.def.Trace, e.p)
		if err != nil {
			return nil, err
		}
		sw, _, err := ex.modeledSpeedup(triple.worst.Trace, e.p)
		if err != nil {
			return nil, err
		}
		sb, _, err := ex.modeledSpeedup(triple.best.Trace, e.p)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{e.name, f1(sd), f1(sw), f1(sb), itoa(e.p)})
	}
	rep.Notes = append(rep.Notes, "paper: Adult-9 1.5/3.1/3.2@16, RCV1 27/31/39@64, USPS 0.5/0.7/1.3@4, Mushrooms 0.4/1.09/1.9@4, w7a 1.7/2.4/3.1@16")
	rep.Took = time.Since(start)
	return rep, nil
}

// RunTable5 reproduces Table V: testing accuracy of the proposed solver
// (executed for real with an aggressive heuristic over several ranks)
// against libsvm-enhanced, on the datasets with test splits.
func RunTable5(o Options) (*Report, error) {
	o = o.withDefaults()
	start := time.Now()
	rep := &Report{
		ID:     "table5",
		Title:  "Testing accuracy: proposed (Multi5pc, p=4, executed) vs libsvm-enhanced",
		Header: []string{"name", "test-acc ours (%)", "test-acc libsvm (%)", "delta"},
	}
	for _, name := range []string{"a9a", "usps", "mnist38", "codrna", "w7a"} {
		ds, _, err := loadDataset(o, name)
		if err != nil {
			return nil, err
		}
		if ds.TestX == nil {
			return nil, fmt.Errorf("table5: dataset %s has no test split", name)
		}
		ours, err := train(o, "core", ds, solver.Options{P: 4, Heuristic: core.Multi5pc.Name})
		if err != nil {
			return nil, err
		}
		oursAcc, err := ours.Model.Evaluate(ds.TestX, ds.TestY)
		if err != nil {
			return nil, err
		}
		base, err := train(o, "smo", ds, solver.Options{Workers: o.BaselineWorkers})
		if err != nil {
			return nil, err
		}
		baseAcc, err := base.Model.Evaluate(ds.TestX, ds.TestY)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{
			name, f2(oursAcc.Accuracy), f2(baseAcc.Accuracy), f2(oursAcc.Accuracy - baseAcc.Accuracy),
		})
	}
	rep.Notes = append(rep.Notes, "the paper's claim: shrinking plus gradient reconstruction matches libsvm accuracy")
	rep.Took = time.Since(start)
	return rep, nil
}
