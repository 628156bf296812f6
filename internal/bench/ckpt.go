package bench

import (
	"fmt"
	"os"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/solver"
)

// RunCkpt measures the cost of crash-consistent checkpointing for every
// training engine: wall-clock with and without periodic checkpoints (the
// budget is <5% overhead), the number of snapshot generations written, and
// the cost of resuming from the newest snapshot. Plain and checkpointed
// runs are interleaved and the fastest of each is reported, which
// suppresses scheduler noise on runs this short.
func RunCkpt(o Options) (*Report, error) {
	o = o.withDefaults()
	start := time.Now()
	ds, _, err := loadDataset(o, "blobs")
	if err != nil {
		return nil, err
	}
	// The same operating point as the svmtrain defaults: a snapshot every
	// 1000 iterations, debounced to at most one fsync per 100ms.
	const every = 1000
	const debounce = 100 * time.Millisecond
	const reps = 5

	rep := &Report{
		ID:     "ckpt",
		Title:  fmt.Sprintf("Checkpoint overhead and resume cost on %s (snapshot every %d iterations)", ds.Name, every),
		Header: []string{"engine", "plain", "checkpointed", "overhead", "saves", "resume", "resume-iters"},
	}

	type engine struct {
		name, engine string
		opts         solver.Options
	}
	engines := []engine{
		{"core (p=2)", "core", solver.Options{P: 2, Heuristic: core.Multi5pc.Name}},
		{"smo", "smo", solver.Options{Workers: o.BaselineWorkers}},
		{"dc", "dc", solver.Options{
			Heuristic: core.Multi5pc.Name, Seed: 7, Workers: o.BaselineWorkers,
			DC: solver.DCOptions{Clusters: 4, SubSolver: "smo", PolishFull: true},
		}},
	}
	// run trains e once: w == nil disables checkpointing, resume == nil
	// starts cold. It returns the run's iteration count; a resumed dc run
	// skips the hierarchy, so its count is the polish's alone.
	run := func(e engine, w *ckpt.Writer, resume []float64) (int64, error) {
		opts := e.opts
		opts.Checkpoint, opts.CheckpointEvery, opts.InitialAlpha = w, every, resume
		res, err := train(o, e.engine, ds, opts)
		return res.Iterations, err
	}

	for _, e := range engines {
		// Plain and checkpointed runs are interleaved in back-to-back pairs
		// and the fastest of each is kept: GC pauses and scheduler drift then
		// hit both sides alike instead of biasing one column. Each
		// checkpointed repetition writes into a fresh directory; the last one
		// is kept for the resume measurement below.
		var plain, checked time.Duration
		var w *ckpt.Writer
		dir := ""
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			if _, err := run(e, nil, nil); err != nil {
				return nil, fmt.Errorf("ckpt %s plain: %w", e.name, err)
			}
			if d := time.Since(t0); i == 0 || d < plain {
				plain = d
			}

			d, err := os.MkdirTemp("", "svmbench-ckpt-")
			if err != nil {
				return nil, err
			}
			if dir != "" {
				os.RemoveAll(dir)
			}
			dir = d
			if w, err = ckpt.NewWriter(d); err != nil {
				return nil, err
			}
			w.SetMinInterval(debounce)
			t0 = time.Now()
			if _, err := run(e, w, nil); err != nil {
				os.RemoveAll(dir)
				return nil, fmt.Errorf("ckpt %s checkpointed: %w", e.name, err)
			}
			if d := time.Since(t0); i == 0 || d < checked {
				checked = d
			}
		}

		st, _, err := ckpt.Load(dir)
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("ckpt %s load: %w", e.name, err)
		}
		t0 := time.Now()
		resumeIters, err := run(e, nil, st.Alpha)
		resumed := time.Since(t0)
		os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("ckpt %s resume: %w", e.name, err)
		}

		overhead := float64(checked-plain) / float64(plain)
		rep.Rows = append(rep.Rows, []string{
			e.name,
			plain.Round(time.Millisecond).String(),
			checked.Round(time.Millisecond).String(),
			pct(overhead),
			itoa(w.Saves()),
			resumed.Round(time.Millisecond).String(),
			i64toa(resumeIters),
		})
		o.logf("ckpt %s: plain %v, checkpointed %v (%.1f%%), %d saves, resume %v in %d iterations",
			e.name, plain, checked, 100*overhead, w.Saves(), resumed, resumeIters)
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("budget: overhead <5%% — saves are debounced to one fsync'd generation per %v; negative overhead is timing noise", debounce),
		"resume restarts from the newest on-disk snapshot (written near convergence here, so few iterations remain)")
	rep.Took = time.Since(start)
	return rep, nil
}
