package dcsvm

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/solver"
)

// TestLinearFastPathParity: cold linear-kernel sub-solves route through
// internal/linear automatically. The routed run must perform zero kernel
// evaluations in its divide level and land within the usual acceptance
// envelope of the same training forced down the kernel path.
func TestLinearFastPathParity(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.5)
	// PolishFull makes both runs eps-optimal on the same full QP, so the
	// comparison is between converged solutions, not between the slightly
	// different support-vector unions the two sub-solvers produce.
	lin := kernel.Params{Type: kernel.Linear}
	opts := solver.Options{C: ds.C, Seed: 11, DC: solver.DCOptions{Clusters: 4, PolishFull: true}}

	fast, fastStats, err := Train(ds.X, ds.Y, lin, opts)
	if err != nil {
		t.Fatal(err)
	}
	linearFastPath = false
	ref, refStats, err := Train(ds.X, ds.Y, lin, opts)
	linearFastPath = true
	if err != nil {
		t.Fatal(err)
	}

	if n := len(fastStats.Levels); n == 0 {
		t.Fatal("no level stats recorded")
	}
	if evals := fastStats.Levels[0].KernelEvals; evals != 0 {
		t.Fatalf("linear fast path did %d kernel evals in the divide level, want 0", evals)
	}
	if evals := refStats.Levels[0].KernelEvals; evals == 0 {
		t.Fatal("disabled fast path still did zero kernel evals; the test is not comparing paths")
	}
	if !fastStats.Converged || !refStats.Converged {
		t.Fatalf("polish converged: fast=%v ref=%v", fastStats.Converged, refStats.Converged)
	}

	fa, err := fast.Evaluate(ds.TestX, ds.TestY)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := ref.Evaluate(ds.TestX, ds.TestY)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fa.Accuracy-ra.Accuracy) > 0.5 {
		t.Fatalf("fast-path accuracy %.2f%% vs kernel-path %.2f%% (gap > 0.5)", fa.Accuracy, ra.Accuracy)
	}
}

// TestLinearFastPathSkippedForKernelModels: a Gaussian run must never route
// through the linear solver, and warm (coarser) levels keep SMO even on
// linear kernels — the fast path only replaces cold level-0 solves.
func TestLinearFastPathSkippedForKernelModels(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.25)
	_, st, err := Train(ds.X, ds.Y, testKernel(ds), blobOpts(ds)) // Gaussian kernel
	if err != nil {
		t.Fatal(err)
	}
	if st.Levels[0].KernelEvals == 0 {
		t.Fatal("Gaussian divide level reports zero kernel evals — fast path leaked into kernel models")
	}

	lin := solver.Options{C: ds.C, Seed: 11, DC: solver.DCOptions{Clusters: 8, Levels: 2}}
	_, st2, err := Train(ds.X, ds.Y, kernel.Params{Type: kernel.Linear}, lin)
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.Levels) < 2 {
		t.Fatalf("two-level run recorded %d levels", len(st2.Levels))
	}
	if st2.Levels[0].KernelEvals != 0 {
		t.Fatalf("cold linear level 0 did %d kernel evals, want 0", st2.Levels[0].KernelEvals)
	}
	if st2.Levels[1].KernelEvals == 0 {
		t.Fatal("warm linear level 1 did zero kernel evals — warm starts must stay on SMO")
	}
}
