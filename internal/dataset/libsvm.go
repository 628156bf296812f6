package dataset

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/sparse"
)

// ParseLine parses one libsvm data line:
//
//	<label> <index>:<value> <index>:<value> ...
//
// Indices are 1-based and must be strictly increasing within the line (the
// format used by the libsvm dataset page); the returned row uses 0-based
// indices as everywhere else in the repository. The label is returned raw —
// callers decide whether to sign-map it (ReadLibsvm) or keep it (regression
// targets, ReadLibsvmValues). Errors name the offending token so request
// decoders (the serving path) can surface them verbatim.
func ParseLine(line string) (float64, sparse.Row, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return 0, sparse.Row{}, fmt.Errorf("empty line")
	}
	label, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return 0, sparse.Row{}, fmt.Errorf("label %q: %w", fields[0], err)
	}
	if math.IsNaN(label) || math.IsInf(label, 0) {
		return 0, sparse.Row{}, fmt.Errorf("label %q is not finite", fields[0])
	}
	row, err := parseFeatures(fields[1:])
	if err != nil {
		return 0, sparse.Row{}, err
	}
	return label, row, nil
}

// ParseRow parses a bare libsvm feature row with no leading label:
//
//	<index>:<value> <index>:<value> ...
//
// This is the request format the inference server accepts; an empty line
// yields an empty (all-zero) row.
func ParseRow(line string) (sparse.Row, error) {
	return parseFeatures(strings.Fields(line))
}

// parseFeatures converts "<idx>:<val>" tokens into a sparse row, enforcing
// 1-based strictly-increasing indices and finite-parseable values.
func parseFeatures(fields []string) (sparse.Row, error) {
	var row sparse.Row
	prev := 0
	for _, f := range fields {
		idxStr, valStr, ok := strings.Cut(f, ":")
		if !ok {
			return sparse.Row{}, fmt.Errorf("malformed feature %q (want index:value)", f)
		}
		idx, err := FeatureIndex(idxStr)
		if err != nil {
			return sparse.Row{}, err
		}
		if idx <= prev {
			return sparse.Row{}, fmt.Errorf("non-increasing feature index %d after %d", idx, prev)
		}
		prev = idx
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return sparse.Row{}, fmt.Errorf("feature value %q: %w", valStr, err)
		}
		if math.IsNaN(val) || math.IsInf(val, 0) {
			// ParseFloat accepts "NaN"/"Inf" spellings with a nil error;
			// non-finite features poison every kernel evaluation downstream.
			return sparse.Row{}, fmt.Errorf("feature value %q is not finite", valStr)
		}
		row.Idx = append(row.Idx, int32(idx-1))
		row.Val = append(row.Val, val)
	}
	return row, nil
}

// FeatureIndex parses a 1-based feature index: the one check shared by
// every decoder of feature rows (libsvm lines here, JSON feature maps in
// the inference server). Indices are stored 0-based as int32 in the CSR
// matrix, so without the upper bound a huge index would wrap negative in
// the int32(idx-1) cast and corrupt the row.
func FeatureIndex(s string) (int, error) {
	idx, err := strconv.Atoi(s)
	if err != nil || idx < 1 {
		return 0, fmt.Errorf("feature index %q (want integer >= 1)", s)
	}
	if idx > math.MaxInt32 {
		return 0, fmt.Errorf("feature index %d exceeds the supported maximum %d", idx, math.MaxInt32)
	}
	return idx, nil
}

// ReadLibsvm parses the libsvm text format, one ParseLine per data line.
// Labels other than +1/-1 are accepted and mapped: positive labels (and
// "+1") to +1, everything else to -1, matching the common binary-task
// convention for these datasets. Blank and '#' lines are skipped, and a
// line longer than 64 MiB is an error.
func ReadLibsvm(r io.Reader) (*sparse.Matrix, []float64, error) {
	return readMatrix(newChunkReader(r, defaultChunkBytes), noEnd, false)
}

// WriteLibsvm writes (x, y) in libsvm text format with 1-based indices.
func WriteLibsvm(w io.Writer, x *sparse.Matrix, y []float64) error {
	if x.Rows() != len(y) {
		return fmt.Errorf("libsvm: %d rows but %d labels", x.Rows(), len(y))
	}
	bw := bufio.NewWriter(w)
	var scratch []byte
	for i := 0; i < x.Rows(); i++ {
		scratch = scratch[:0]
		if y[i] > 0 {
			scratch = append(scratch, "+1"...)
		} else {
			scratch = append(scratch, "-1"...)
		}
		r := x.RowView(i)
		for k, c := range r.Idx {
			scratch = append(scratch, ' ')
			scratch = strconv.AppendInt(scratch, int64(c)+1, 10)
			scratch = append(scratch, ':')
			// Shortest representation that parses back to the exact float64,
			// so a write/read round trip is bit-identical.
			scratch = strconv.AppendFloat(scratch, r.Val[k], 'g', -1, 64)
		}
		scratch = append(scratch, '\n')
		if _, err := bw.Write(scratch); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadLibsvmValues parses the libsvm text format keeping labels verbatim
// instead of sign-mapping them, so regression targets survive a round
// trip. Everything else matches ReadLibsvm.
func ReadLibsvmValues(r io.Reader) (*sparse.Matrix, []float64, error) {
	return readMatrix(newChunkReader(r, defaultChunkBytes), noEnd, true)
}

// WriteLibsvmValues writes (x, y) in libsvm text format with full-precision
// labels (shortest representation that parses back to the exact float64),
// the counterpart of ReadLibsvmValues for continuous targets.
func WriteLibsvmValues(w io.Writer, x *sparse.Matrix, y []float64) error {
	if x.Rows() != len(y) {
		return fmt.Errorf("libsvm: %d rows but %d labels", x.Rows(), len(y))
	}
	for _, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("libsvm: non-finite label %v", v)
		}
	}
	bw := bufio.NewWriter(w)
	var scratch []byte
	for i := 0; i < x.Rows(); i++ {
		scratch = strconv.AppendFloat(scratch[:0], y[i], 'g', -1, 64)
		r := x.RowView(i)
		for k, c := range r.Idx {
			scratch = append(scratch, ' ')
			scratch = strconv.AppendInt(scratch, int64(c)+1, 10)
			scratch = append(scratch, ':')
			scratch = strconv.AppendFloat(scratch, r.Val[k], 'g', -1, 64)
		}
		scratch = append(scratch, '\n')
		if _, err := bw.Write(scratch); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadLibsvmValuesFile reads a libsvm file from disk keeping labels verbatim.
func LoadLibsvmValuesFile(path string) (*sparse.Matrix, []float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return ReadLibsvmValues(f)
}

// SaveLibsvmValuesFile writes a libsvm file to disk with verbatim labels.
func SaveLibsvmValuesFile(path string, x *sparse.Matrix, y []float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WriteLibsvmValues(f, x, y); err != nil {
		return err
	}
	return f.Close()
}

// LoadLibsvmFile reads a libsvm file from disk.
func LoadLibsvmFile(path string) (*sparse.Matrix, []float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return ReadLibsvm(f)
}

// SaveLibsvmFile writes a libsvm file to disk.
func SaveLibsvmFile(path string, x *sparse.Matrix, y []float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WriteLibsvm(f, x, y); err != nil {
		return err
	}
	return f.Close()
}
