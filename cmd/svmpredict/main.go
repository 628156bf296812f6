// Command svmpredict scores a libsvm-format dataset with a trained model
// and reports how the model did by its task: accuracy for a classifier,
// MSE, MAE and R² against the raw targets for an epsilon-SVR model, and
// the share of rows flagged as outliers for a one-class model.
//
//	svmpredict -model svm.model -data test.libsvm -out predictions.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/sparse"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "svmpredict:", err)
		os.Exit(1)
	}
}

// run parses args, scores the data and prints the task's report line to
// stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("svmpredict", flag.ContinueOnError)
	var (
		modelPath = fs.String("model", "svm.model", "model file from svmtrain")
		dataPath  = fs.String("data", "", "data in libsvm format (labels or targets used for the report)")
		outPath   = fs.String("out", "", "optional predictions output file (one ±1 label, or one SVR estimate, per line)")
		decisions = fs.Bool("decision-values", false, "write raw decision values instead of labels")
		probs     = fs.Bool("prob", false, "write calibrated probabilities (model must be trained with -probability)")
		workers   = fs.Int("workers", 0, "prediction worker pool size (0 = GOMAXPROCS)")
		chunk     = fs.Int("chunk", 4096, "rows evaluated per batched prediction call")
		noPack    = fs.Bool("no-pack", false, "skip the packed predict-time support-vector layout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataPath == "" {
		return fmt.Errorf("-data is required")
	}
	if *chunk <= 0 {
		*chunk = 4096
	}

	// serve.LoadModel (shared with cmd/svmserve) validates the model file
	// up front, so a corrupted model is a clean non-zero exit before any
	// data is read — never a partial run.
	m, err := serve.LoadModel(*modelPath)
	if err != nil {
		return err
	}
	if !*noPack {
		m.Pack(model.DefaultPackBudget)
	}
	task := m.TaskKind()
	// An SVR model is judged against the raw targets; the other tasks
	// read labels as signs.
	load := dataset.LoadLibsvmFile
	if task == model.TaskSVR {
		load = dataset.LoadLibsvmValuesFile
	}
	x, y, err := load(*dataPath)
	if err != nil {
		return err
	}

	var out *bufio.Writer
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = bufio.NewWriter(f)
		defer out.Flush()
	}

	if *probs && !m.HasProb {
		return fmt.Errorf("model has no probability parameters; train with svmtrain -probability")
	}
	// Predictions stream through the same batched path the server uses:
	// chunks of rows per DecisionValues call, so the worker pool and the
	// packed layout amortize over whole blocks instead of single rows.
	correct, outliers := 0, 0
	for lo := 0; lo < x.Rows(); lo += *chunk {
		view, err := x.RowRangeView(lo, min(lo+*chunk, x.Rows()))
		if err != nil {
			return err
		}
		dv := m.DecisionValues(view, *workers)
		for i, v := range dv {
			pred := 1.0
			if v < 0 {
				pred = -1
			}
			if pred == y[lo+i] {
				correct++
			}
			if pred < 0 {
				outliers++
			}
			if out != nil {
				switch {
				case *probs:
					p, _ := m.ProbabilityFromDecision(v)
					fmt.Fprintf(out, "%.6f\n", p)
				case *decisions || task == model.TaskSVR:
					fmt.Fprintf(out, "%v\n", v)
				default:
					fmt.Fprintf(out, "%+g\n", pred)
				}
			}
		}
	}
	return report(stdout, m, x, y, correct, outliers)
}

// report prints the task's summary line: regression metrics for SVR, the
// share of rows flagged as outliers for one-class, and label accuracy for
// a classifier.
func report(stdout io.Writer, m *model.Model, x *sparse.Matrix, y []float64, correct, outliers int) error {
	rows := x.Rows()
	switch m.TaskKind() {
	case model.TaskSVR:
		mt, err := m.EvaluateRegression(x, y)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "mse = %.6g, mae = %.6g, r2 = %.4f (%d rows) with %d support vectors\n",
			mt.MSE, mt.MAE, mt.R2, rows, m.NumSV())
	case model.TaskOneClass:
		fmt.Fprintf(stdout, "outliers = %.4f%% (%d/%d) with %d support vectors\n",
			100*float64(outliers)/float64(max(1, rows)), outliers, rows, m.NumSV())
	default:
		fmt.Fprintf(stdout, "accuracy = %.4f%% (%d/%d) with %d support vectors\n",
			100*float64(correct)/float64(max(1, rows)), correct, rows, m.NumSV())
	}
	return nil
}
