// Package repro_test holds the testing.B entry points that regenerate
// every table and figure of the paper's evaluation (one benchmark per
// exhibit), as indexed in DESIGN.md. Each benchmark executes the
// corresponding experiment from internal/bench and prints its report on
// the first iteration, so
//
//	go test -bench=. -benchmem
//
// at the repository root reproduces the whole evaluation section. The
// benchmarks run the datasets at a reduced scale (SVM_BENCH_SCALE
// multiplies the harness defaults; it defaults to 0.35 here so the full
// suite finishes in minutes — use cmd/svmbench for full-scale reports).
package repro_test

import (
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/bench"
)

// benchScale reads SVM_BENCH_SCALE (default 0.35).
func benchScale() float64 {
	if v := os.Getenv("SVM_BENCH_SCALE"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.35
}

var printOnce sync.Map

// runExperiment executes one experiment per benchmark iteration and prints
// the regenerated table once.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := bench.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	opts := bench.Options{Scale: benchScale()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := e.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, done := printOnce.LoadOrStore(id, true); !done {
			b.StopTimer()
			rep.Print(os.Stdout)
			b.StartTimer()
		}
	}
}

// BenchmarkFigure1 regenerates the support-vector-fraction premise
// (Figure 1).
func BenchmarkFigure1(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkTable2Heuristics sweeps all thirteen Table II heuristics.
func BenchmarkTable2Heuristics(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkTable3Datasets prints the dataset characteristics (Table III).
func BenchmarkTable3Datasets(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkFigure3Higgs regenerates the UCI HIGGS scaling figure.
func BenchmarkFigure3Higgs(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkFigure4URL regenerates the Offending URL scaling figure.
func BenchmarkFigure4URL(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFigure5Forest regenerates the Forest covertype scaling figure.
func BenchmarkFigure5Forest(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFigure6MNIST regenerates the MNIST scaling figure.
func BenchmarkFigure6MNIST(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFigure7RealSim regenerates the real-sim scaling figure.
func BenchmarkFigure7RealSim(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFigure8Reconstruction regenerates the
// gradient-reconstruction-share figure.
func BenchmarkFigure8Reconstruction(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkTable4Small regenerates the smaller-dataset speedups (Table IV).
func BenchmarkTable4Small(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkTable5Accuracy regenerates the testing-accuracy parity table
// (Table V).
func BenchmarkTable5Accuracy(b *testing.B) { runExperiment(b, "table5") }

// BenchmarkAblationKernelCache varies the baseline's kernel-cache budget
// (DESIGN.md ablation 1).
func BenchmarkAblationKernelCache(b *testing.B) { runExperiment(b, "ablation-cache") }

// BenchmarkValidateModel cross-checks the analytic model against executed
// virtual time.
func BenchmarkValidateModel(b *testing.B) { runExperiment(b, "validate-model") }

// BenchmarkWSS compares working-set selection rules, measured on the smo
// engines and modeled on the distributed solver (DESIGN.md ablation 2).
func BenchmarkWSS(b *testing.B) { runExperiment(b, "wss") }
