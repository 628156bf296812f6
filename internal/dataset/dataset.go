// Package dataset provides the training/testing data used by the
// experiments: a reader/writer for the libsvm text format (the paper
// downloads all ten datasets from the libsvm page) and deterministic
// synthetic generators that mirror each dataset's published shape.
//
// The real datasets are multi-gigabyte downloads that are unavailable
// offline, so the generators substitute two-class mixtures whose sample
// count (scaled), dimensionality, sparsity and class overlap match the
// originals. What the paper's shrinking heuristics are sensitive to is the
// fraction of samples that end up as support vectors and how quickly
// non-SV gradients stabilize — both controlled here by the margin/noise
// parameters. DESIGN.md section 2 records the substitution rationale;
// EXPERIMENTS.md records the scale factor used per experiment.
package dataset

import (
	"fmt"

	"repro/internal/sparse"
)

// Dataset bundles a training set, an optional testing set, and the
// hyper-parameters the paper uses for it (Table III).
type Dataset struct {
	Name  string
	X     *sparse.Matrix
	Y     []float64 // labels in {+1, -1}
	TestX *sparse.Matrix
	TestY []float64

	C      float64 // box constraint
	Sigma2 float64 // Gaussian kernel width; gamma = 1/(2*sigma2)
}

// Train returns the number of training samples.
func (d *Dataset) Train() int { return d.X.Rows() }

// Test returns the number of testing samples (0 if none).
func (d *Dataset) Test() int {
	if d.TestX == nil {
		return 0
	}
	return d.TestX.Rows()
}

// Validate checks labels and matrix invariants.
func (d *Dataset) Validate() error {
	if err := d.X.Validate(); err != nil {
		return fmt.Errorf("dataset %s: train matrix: %w", d.Name, err)
	}
	if len(d.Y) != d.X.Rows() {
		return fmt.Errorf("dataset %s: %d train labels for %d rows", d.Name, len(d.Y), d.X.Rows())
	}
	if err := checkLabels(d.Y); err != nil {
		return fmt.Errorf("dataset %s: train: %w", d.Name, err)
	}
	if d.TestX != nil {
		if err := d.TestX.Validate(); err != nil {
			return fmt.Errorf("dataset %s: test matrix: %w", d.Name, err)
		}
		if len(d.TestY) != d.TestX.Rows() {
			return fmt.Errorf("dataset %s: %d test labels for %d rows", d.Name, len(d.TestY), d.TestX.Rows())
		}
		if err := checkLabels(d.TestY); err != nil {
			return fmt.Errorf("dataset %s: test: %w", d.Name, err)
		}
	}
	return nil
}

func checkLabels(y []float64) error {
	pos, neg := 0, 0
	for i, v := range y {
		switch v {
		case 1:
			pos++
		case -1:
			neg++
		default:
			return fmt.Errorf("label %d is %v, want +1 or -1", i, v)
		}
	}
	if pos == 0 || neg == 0 {
		return fmt.Errorf("degenerate label distribution: %d positive, %d negative", pos, neg)
	}
	return nil
}
