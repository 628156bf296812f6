package dataset

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/sparse"
)

// Scaler linearly maps each feature into a target range, the job of
// libsvm's svm-scale companion tool. The paper downloads pre-scaled
// datasets from the libsvm page; when training from raw feature files the
// same preprocessing is needed, and critically the *training* scaler must
// be reused for the testing set (fitting a fresh one leaks information and
// mismatches the model).
type Scaler struct {
	Lo, Hi  float64   // target range
	FeatMin []float64 // per-feature observed minimum
	FeatMax []float64 // per-feature observed maximum
}

// FitScaler learns per-feature ranges from x. Features never observed
// nonzero keep an empty [0,0] range and pass through unscaled. The zero
// entries of sparse rows participate in the range (as in svm-scale), so a
// feature seen only with positive values still maps 0 into the range.
func FitScaler(x *sparse.Matrix, lo, hi float64) (*Scaler, error) {
	if hi <= lo {
		return nil, fmt.Errorf("dataset: scaler range [%v,%v] is empty", lo, hi)
	}
	s := &Scaler{
		Lo:      lo,
		Hi:      hi,
		FeatMin: make([]float64, x.Cols),
		FeatMax: make([]float64, x.Cols),
	}
	seen := make([]bool, x.Cols)
	for i := 0; i < x.Rows(); i++ {
		r := x.RowView(i)
		for k, c := range r.Idx {
			v := r.Val[k]
			if !seen[c] {
				seen[c] = true
				s.FeatMin[c], s.FeatMax[c] = v, v
				continue
			}
			s.FeatMin[c] = math.Min(s.FeatMin[c], v)
			s.FeatMax[c] = math.Max(s.FeatMax[c], v)
		}
	}
	// Sparse zeros are implicit observations.
	if x.Rows() > 0 {
		counts := make([]int, x.Cols)
		for i := 0; i < x.Rows(); i++ {
			r := x.RowView(i)
			for _, c := range r.Idx {
				counts[c]++
			}
		}
		for c := range counts {
			if seen[c] && counts[c] < x.Rows() {
				s.FeatMin[c] = math.Min(s.FeatMin[c], 0)
				s.FeatMax[c] = math.Max(s.FeatMax[c], 0)
			}
		}
	}
	return s, nil
}

// scaleValue maps one value of feature c.
func (s *Scaler) scaleValue(c int32, v float64) float64 {
	if int(c) >= len(s.FeatMin) {
		return v // feature unseen at fit time: pass through
	}
	mn, mx := s.FeatMin[c], s.FeatMax[c]
	if mx == mn {
		return v // constant feature: leave as is (svm-scale drops it)
	}
	return s.Lo + (v-mn)*(s.Hi-s.Lo)/(mx-mn)
}

// Apply returns a scaled copy of x. Entries that scale to exactly zero are
// dropped from the sparse structure.
func (s *Scaler) Apply(x *sparse.Matrix) *sparse.Matrix {
	b := sparse.NewBuilder(x.Cols)
	for i := 0; i < x.Rows(); i++ {
		r := x.RowView(i)
		for k, c := range r.Idx {
			if v := s.scaleValue(c, r.Val[k]); v != 0 {
				b.Add(int(c), v)
			}
		}
		b.EndRow()
	}
	out := b.Build()
	if out.Cols < x.Cols {
		out.Cols = x.Cols
	}
	return out
}

// Write serializes the scaler in svm-scale's restore-file format:
//
//	x
//	<lo> <hi>
//	<feature-index-1-based> <min> <max>
func (s *Scaler) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "x")
	fmt.Fprintf(bw, "%v %v\n", s.Lo, s.Hi)
	for c := range s.FeatMin {
		if s.FeatMin[c] != 0 || s.FeatMax[c] != 0 {
			fmt.Fprintf(bw, "%d %v %v\n", c+1, s.FeatMin[c], s.FeatMax[c])
		}
	}
	return bw.Flush()
}

// ReadScaler parses a scaler written by Write.
func ReadScaler(r io.Reader) (*Scaler, error) {
	sc := bufio.NewScanner(r)
	if !sc.Scan() || strings.TrimSpace(sc.Text()) != "x" {
		return nil, fmt.Errorf("dataset: scaler file missing 'x' header")
	}
	if !sc.Scan() {
		return nil, fmt.Errorf("dataset: scaler file missing range line")
	}
	fields := strings.Fields(sc.Text())
	if len(fields) != 2 {
		return nil, fmt.Errorf("dataset: malformed range line %q", sc.Text())
	}
	lo, err1 := strconv.ParseFloat(fields[0], 64)
	hi, err2 := strconv.ParseFloat(fields[1], 64)
	if err1 != nil || err2 != nil || hi <= lo {
		return nil, fmt.Errorf("dataset: bad scaler range %q", sc.Text())
	}
	s := &Scaler{Lo: lo, Hi: hi}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("dataset: malformed feature line %q", line)
		}
		// Indices share ParseLine's int32 bound; the dense ranges below
		// grow to the largest one.
		idx, err := strconv.Atoi(f[0])
		if err != nil || idx < 1 || idx > math.MaxInt32 {
			return nil, fmt.Errorf("dataset: bad feature index %q", f[0])
		}
		mn, err1 := strconv.ParseFloat(f[1], 64)
		mx, err2 := strconv.ParseFloat(f[2], 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("dataset: bad feature range %q", line)
		}
		for len(s.FeatMin) < idx {
			s.FeatMin = append(s.FeatMin, 0)
			s.FeatMax = append(s.FeatMax, 0)
		}
		s.FeatMin[idx-1], s.FeatMax[idx-1] = mn, mx
	}
	return s, sc.Err()
}
