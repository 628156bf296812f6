// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation section (Section V) on synthetic
// stand-ins for the ten datasets, printing the same rows/series the paper
// reports.
//
// Methodology (see DESIGN.md section 2 for the full rationale):
//
//   - the libsvm-enhanced baseline (internal/smo, goroutine workers playing
//     the role of OpenMP threads, kernel cache enabled) is executed for
//     real and timed;
//   - the distributed solver is executed for real once per heuristic to
//     record its trace (the iterate sequence is process-count independent);
//   - the trace is evaluated by the analytic performance model
//     (internal/perfmodel) for every process count in the figure, using
//     the host-calibrated kernel-evaluation cost and InfiniBand-FDR
//     network constants;
//   - speedups are reported relative to the baseline's own modeled
//     full-scale time (its schedule is also recorded and evaluated with
//     the same calibrated constants), exactly as the paper's bars are
//     relative to libsvm-enhanced on 16 cores; the measured wall time of
//     the baseline run is printed alongside for transparency.
//
// Dataset sizes are scaled down (the scale is printed with each report) so
// a full sweep runs on one machine; shapes, not absolute times, are the
// reproduction target.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Options configures a harness run.
type Options struct {
	// Scale multiplies each experiment's default dataset scale
	// (1.0 = defaults tuned for a few minutes per figure; smaller is
	// quicker and noisier).
	Scale float64
	// Eps is the solver tolerance; 0 means 1e-3 (libsvm's default).
	Eps float64
	// BaselineWorkers is the thread count for libsvm-enhanced; 0 means 16
	// (the paper's one-node configuration).
	BaselineWorkers int
	// MemBudget is the resident-byte budget of the out-of-core stream
	// experiment; 0 means a quarter of each dataset's CSR payload.
	MemBudget int64
	// Verbose enables progress logging to Log.
	Verbose bool
	// Log receives progress messages (defaults to io.Discard).
	Log io.Writer
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Eps <= 0 {
		o.Eps = 1e-3
	}
	if o.BaselineWorkers <= 0 {
		o.BaselineWorkers = 16
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
	return o
}

func (o Options) logf(format string, args ...any) {
	if o.Verbose {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// Report is a regenerated table or figure, as rows of formatted cells.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	Took   time.Duration
}

// Print renders the report as an aligned text table.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	printRow(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range r.Rows {
		printRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintf(w, "  (took %v)\n\n", r.Took.Round(time.Millisecond))
}

// Experiment is one regenerable table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (*Report, error)
}

// Experiments returns every experiment in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "fig1", Title: "Support-vector fraction across datasets (Figure 1 premise)", Run: RunFigure1},
		{ID: "table2", Title: "All thirteen shrinking heuristics on one dataset (Table II)", Run: RunTable2},
		{ID: "table3", Title: "Dataset characteristics and hyper-parameters (Table III)", Run: RunTable3},
		{ID: "fig3", Title: "UCI HIGGS speedup vs libsvm-enhanced, up to 4096 processes (Figure 3)", Run: RunFigure3},
		{ID: "fig4", Title: "Offending URL speedup vs libsvm-enhanced, up to 4096 processes (Figure 4)", Run: RunFigure4},
		{ID: "fig5", Title: "Forest covertype speedup, up to 1024 processes (Figure 5)", Run: RunFigure5},
		{ID: "fig6", Title: "MNIST speedup, up to 512 processes (Figure 6)", Run: RunFigure6},
		{ID: "fig7", Title: "real-sim speedup, up to 256 processes (Figure 7)", Run: RunFigure7},
		{ID: "fig8", Title: "Fraction of time in gradient reconstruction, Multi5pc (Figure 8)", Run: RunFigure8},
		{ID: "table4", Title: "Speedup vs libsvm-sequential on smaller datasets (Table IV)", Run: RunTable4},
		{ID: "table5", Title: "Testing accuracy: proposed solver vs libsvm-enhanced (Table V)", Run: RunTable5},
		{ID: "ablation-cache", Title: "Ablation: kernel-cache budget in the libsvm-enhanced baseline", Run: RunAblationCache},
		{ID: "wss", Title: "Working-set selection: first- vs second-order, measured (smo/smo2) and modeled (core, p=64)", Run: RunWSS},
		{ID: "dcsvm", Title: "Divide-and-conquer training vs exact full solves (wall-clock)", Run: RunDCSVM},
		{ID: "linear", Title: "Linear fast path (explicit w) vs kernel engines on sparse text", Run: RunLinear},
		{ID: "stream", Title: "Out-of-core streaming load vs in-memory (peak heap, parity)", Run: RunStream},
		{ID: "oracle", Title: "Cross-solver correctness oracle: duality gap and KKT violations per engine", Run: RunOracle},
		{ID: "serve", Title: "Serving throughput: coalescing, packed layout, and overload shedding", Run: RunServe},
		{ID: "ckpt", Title: "Checkpoint overhead and resume cost per training engine", Run: RunCkpt},
		{ID: "tasks", Title: "Task variants: cold retrain vs incremental warm-start update (SVR, one-class)", Run: RunTasks},
		{ID: "kernelrow", Title: "Kernel row engine: pairwise vs dense-scratch vs fused pair (ns/eval)", Run: RunKernelRow},
		{ID: "validate-model", Title: "Cross-check: analytic model vs executed virtual time", Run: RunValidateModel},
	}
}

// ByID resolves an experiment. The pseudo-ID "all" is not resolved here;
// callers iterate Experiments themselves.
func ByID(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %v and \"all\")", id, ids)
}

func f1(v float64) string   { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string   { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string  { return fmt.Sprintf("%.1f%%", 100*v) }
func itoa(v int) string     { return fmt.Sprintf("%d", v) }
func i64toa(v int64) string { return fmt.Sprintf("%d", v) }
