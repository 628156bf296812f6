package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestRunRejectsBeforeLoading(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.train")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-solver", "linear", "-sigma2-grid", "1,4"}, "-sigma2-grid requires a kernels-capable engine"},
		{[]string{"-solver", "smo", "-p", "2"}, "-p requires"},
		{[]string{"-solver", "tasks"}, "does not train binary classifiers"},
		{[]string{"-solver", "nope"}, `unknown -solver "nope"`},
		{[]string{"-heuristic", "Bogus"}, "Bogus"},
		{[]string{"-solver", "linear", "-linear-variant", "bogus"}, "bogus"},
	} {
		var out bytes.Buffer
		err := run(append([]string{"-data", missing}, tc.args...), &out)
		switch {
		case err == nil:
			t.Errorf("%v: accepted", tc.args)
		case strings.Contains(err.Error(), missing):
			t.Errorf("%v: rejected only after opening the data: %v", tc.args, err)
		case !strings.Contains(err.Error(), tc.want):
			t.Errorf("%v: error %q lacks %q", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q before rejecting", tc.args, out.String())
		}
	}
}

// TestRunGridIsDeterministic runs a 2x2 grid twice: the tables must match
// and the selected line must name the row marked best, which in turn must
// have the highest mean accuracy.
func TestRunGridIsDeterministic(t *testing.T) {
	args := []string{"-dataset", "blobs", "-dataset-scale", "0.1", "-folds", "3",
		"-c-grid", "1,10", "-sigma2-grid", "0.5,4", "-p", "2"}
	var first, second bytes.Buffer
	if err := run(args, &first); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatalf("two runs differ:\n%s\n---\n%s", first.String(), second.String())
	}

	var bestLine, selected string
	bestAcc, maxAcc, rows := 0.0, 0.0, 0
	for _, line := range strings.Split(first.String(), "\n") {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "selected: "):
			selected = line
		case len(f) >= 4 && !strings.HasPrefix(line, "grid search"):
			acc, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				continue // header
			}
			rows++
			maxAcc = max(maxAcc, acc)
			if strings.HasSuffix(line, "<- best") {
				bestLine, bestAcc = line, acc
			}
		}
	}
	if rows != 4 || bestLine == "" {
		t.Fatalf("want 4 grid rows and a best marker:\n%s", first.String())
	}
	if bestAcc != maxAcc {
		t.Errorf("best row %q is not the highest accuracy %.2f", bestLine, maxAcc)
	}
	f := strings.Fields(bestLine)
	if want := fmt.Sprintf("selected: -c %s -sigma2 %s (CV accuracy %s%%", f[0], f[1], f[2]); !strings.HasPrefix(selected, want) {
		t.Errorf("selected line %q does not name the best grid point (want prefix %q)", selected, want)
	}
}

func TestRunLinearGrid(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-dataset", "blobs", "-dataset-scale", "0.1", "-folds", "3",
		"-solver", "linear", "-c-grid", "0.5,1"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "selected: -solver linear -c ") {
		t.Errorf("linear grid output:\n%s", out.String())
	}
}
