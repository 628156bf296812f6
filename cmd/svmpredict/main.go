// Command svmpredict classifies a libsvm-format dataset with a trained
// model and reports accuracy when labels are present.
//
//	svmpredict -model svm.model -data test.libsvm -out predictions.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "svmpredict:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		modelPath = flag.String("model", "svm.model", "model file from svmtrain")
		dataPath  = flag.String("data", "", "data in libsvm format (labels used for accuracy)")
		outPath   = flag.String("out", "", "optional predictions output file (one ±1 per line)")
		decisions = flag.Bool("decision-values", false, "write raw decision values instead of labels")
		probs     = flag.Bool("prob", false, "write calibrated probabilities (model must be trained with -probability)")
		workers   = flag.Int("workers", 0, "prediction worker pool size (0 = GOMAXPROCS)")
		chunk     = flag.Int("chunk", 4096, "rows evaluated per batched prediction call")
		noPack    = flag.Bool("no-pack", false, "skip the packed predict-time support-vector layout")
	)
	flag.Parse()
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
	x, y, err := dataset.LoadLibsvmFile(*dataPath)
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
	correct := 0
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
			if out != nil {
				switch {
				case *probs:
					p, _ := m.ProbabilityFromDecision(v)
					fmt.Fprintf(out, "%.6f\n", p)
				case *decisions:
					fmt.Fprintf(out, "%v\n", v)
				default:
					fmt.Fprintf(out, "%+g\n", pred)
				}
			}
		}
	}
	fmt.Printf("accuracy = %.4f%% (%d/%d) with %d support vectors\n",
		100*float64(correct)/float64(max(1, x.Rows())), correct, x.Rows(), m.NumSV())
	return nil
}
