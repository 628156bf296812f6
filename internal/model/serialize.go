package model

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/kernel"
	"repro/internal/sparse"
)

// The on-disk format is a libsvm-inspired text format:
//
//	svm_type c_svc
//	kernel_type rbf
//	gamma 0.0078125
//	coef0 0            (polynomial/sigmoid only)
//	degree 3           (polynomial only)
//	C 32
//	beta -0.137
//	train_samples 26000
//	iterations 812345
//	total_sv 412
//	SV
//	<coef> <idx>:<val> <idx>:<val> ...     (1-based feature indices)
//
// It is human-inspectable, diff-friendly, and close enough to libsvm's
// model files that the correspondence is obvious.
//
// Models carrying a dense hyperplane (the linear fast path) additionally
// write, as format version 1 of the W extension,
//
//	w_format 1
//	w_dim <d>
//	w_crc <crc32c>
//	...
//	SV
//	<sv lines, possibly none>
//	W
//	<idx>:<val> <idx>:<val> ...            (1-based, nonzeros, ascending)
//
// The checksum is CRC-32C over the canonical little-endian encoding of
// (dim, then each (uint32 index, float64 bits) pair in ascending index
// order), so a corrupted, truncated or reordered W section is rejected at
// load time; svmserve/svmpredict hot-load linear models through the same
// loader. Readers reject w_format values they do not know.

// Write serializes the model to w.
func (m *Model) Write(w io.Writer) error {
	if err := m.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "svm_type %s\n", m.TaskKind())
	if m.TaskKind() != TaskCSVC {
		// Task extension, format version 1: the parameters that change the
		// meaning of the kernel expansion, sealed by a checksum over
		// (kind, epsilon, nu) so a corrupted or spliced task section is
		// rejected at load time — same discipline as the W section.
		fmt.Fprintln(bw, "task_format 1")
		switch m.TaskKind() {
		case TaskSVR:
			fmt.Fprintf(bw, "svr_epsilon %v\n", m.Epsilon)
		case TaskOneClass:
			fmt.Fprintf(bw, "nu %v\n", m.Nu)
		}
		fmt.Fprintf(bw, "task_crc %d\n", taskChecksum(m.TaskKind(), m.Epsilon, m.Nu))
	}
	fmt.Fprintf(bw, "kernel_type %s\n", m.Kernel.Type)
	switch m.Kernel.Type {
	case kernel.Gaussian:
		fmt.Fprintf(bw, "gamma %v\n", m.Kernel.Gamma)
	case kernel.Polynomial:
		fmt.Fprintf(bw, "gamma %v\n", m.Kernel.Gamma)
		fmt.Fprintf(bw, "coef0 %v\n", m.Kernel.Coef0)
		fmt.Fprintf(bw, "degree %d\n", m.Kernel.Degree)
	case kernel.Sigmoid:
		fmt.Fprintf(bw, "gamma %v\n", m.Kernel.Gamma)
		fmt.Fprintf(bw, "coef0 %v\n", m.Kernel.Coef0)
	}
	fmt.Fprintf(bw, "C %v\n", m.C)
	fmt.Fprintf(bw, "beta %v\n", m.Beta)
	if m.HasProb {
		fmt.Fprintf(bw, "prob_a %v\n", m.ProbA)
		fmt.Fprintf(bw, "prob_b %v\n", m.ProbB)
	}
	fmt.Fprintf(bw, "train_samples %d\n", m.TrainSamples)
	fmt.Fprintf(bw, "iterations %d\n", m.Iterations)
	if m.IsLinear() {
		idx, val := packW(m.W)
		fmt.Fprintln(bw, "w_format 1")
		fmt.Fprintf(bw, "w_dim %d\n", len(m.W))
		fmt.Fprintf(bw, "w_crc %d\n", wChecksum(len(m.W), idx, val))
	}
	fmt.Fprintf(bw, "total_sv %d\n", m.NumSV())
	fmt.Fprintln(bw, "SV")
	for i := 0; i < m.NumSV(); i++ {
		fmt.Fprintf(bw, "%v", m.Coef[i])
		r := m.SV.RowView(i)
		for k, c := range r.Idx {
			fmt.Fprintf(bw, " %d:%v", c+1, r.Val[k])
		}
		fmt.Fprintln(bw)
	}
	if m.IsLinear() {
		fmt.Fprintln(bw, "W")
		idx, val := packW(m.W)
		for k, c := range idx {
			if k > 0 {
				fmt.Fprint(bw, " ")
			}
			fmt.Fprintf(bw, "%d:%v", c+1, val[k])
		}
		if len(idx) > 0 {
			fmt.Fprintln(bw)
		}
	}
	return bw.Flush()
}

// packW extracts the nonzero entries of a dense hyperplane in ascending
// index order — the canonical form both the text encoding and the checksum
// are defined over.
func packW(w []float64) (idx []int32, val []float64) {
	for j, v := range w {
		if v != 0 {
			idx = append(idx, int32(j))
			val = append(val, v)
		}
	}
	return idx, val
}

var wCRCTable = crc32.MakeTable(crc32.Castagnoli)

// wChecksum is CRC-32C over the canonical little-endian encoding of a
// hyperplane: uint64 dim, then (uint32 index, float64 bits) per nonzero in
// ascending index order.
func wChecksum(dim int, idx []int32, val []float64) uint32 {
	h := crc32.New(wCRCTable)
	var b [12]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(dim))
	h.Write(b[:8])
	for k := range idx {
		binary.LittleEndian.PutUint32(b[:4], uint32(idx[k]))
		binary.LittleEndian.PutUint64(b[4:12], math.Float64bits(val[k]))
		h.Write(b[:12])
	}
	return h.Sum32()
}

// wHeader accumulates the W-extension header keys during parsing.
type wHeader struct {
	dim    int // -1 = no W extension declared
	crc    uint32
	hasCRC bool
}

// taskChecksum is CRC-32C over the canonical little-endian encoding of the
// task parameters: the kind string, then the float64 bits of epsilon and nu.
func taskChecksum(t Task, epsilon, nu float64) uint32 {
	h := crc32.New(wCRCTable)
	h.Write([]byte(t))
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], math.Float64bits(epsilon))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(nu))
	h.Write(b[:])
	return h.Sum32()
}

// taskHeader accumulates the task-extension header keys during parsing.
type taskHeader struct {
	sawFormat bool
	crc       uint32
	hasCRC    bool
}

// verifyTask enforces the task-extension contract after the header is
// parsed: non-classifier models must declare the versioned section and a
// checksum matching the parsed parameters; classifiers must not carry one.
func verifyTask(m *Model, th *taskHeader) error {
	if m.TaskKind() == TaskCSVC {
		if th.sawFormat || th.hasCRC {
			return fmt.Errorf("model: task extension headers on a c_svc model")
		}
		return nil
	}
	if !th.sawFormat {
		return fmt.Errorf("model: svm_type %s without task_format header", m.TaskKind())
	}
	if !th.hasCRC {
		return fmt.Errorf("model: svm_type %s without task_crc header", m.TaskKind())
	}
	if got := taskChecksum(m.TaskKind(), m.Epsilon, m.Nu); got != th.crc {
		return fmt.Errorf("model: task checksum mismatch: file declares %d, parameters hash to %d (corrupted model file)", th.crc, got)
	}
	return nil
}

// Read parses a model previously written by Write.
func Read(r io.Reader) (*Model, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	m := &Model{}
	totalSV := -1
	wh := wHeader{dim: -1}
	var th taskHeader
	inHeader := true
	inW := false
	var wIdx []int32
	var wVal []float64
	b := sparse.NewBuilder(0)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if inHeader {
			if line == "SV" {
				inHeader = false
				continue
			}
			key, val, ok := strings.Cut(line, " ")
			if !ok {
				return nil, fmt.Errorf("model: malformed header line %q", line)
			}
			if err := parseHeader(m, &totalSV, &wh, &th, key, val); err != nil {
				return nil, err
			}
			continue
		}
		if line == "W" {
			if inW {
				return nil, fmt.Errorf("model: duplicate W section")
			}
			inW = true
			continue
		}
		if inW {
			if err := parseWLine(line, &wIdx, &wVal); err != nil {
				return nil, err
			}
			continue
		}
		coef, row, err := parseSVLine(line)
		if err != nil {
			return nil, err
		}
		m.Coef = append(m.Coef, coef)
		b.AddRow(row.Idx, row.Val)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("model: read: %w", err)
	}
	if inHeader {
		return nil, fmt.Errorf("model: missing SV section")
	}
	if err := verifyTask(m, &th); err != nil {
		return nil, err
	}
	m.SV = b.Build()
	if totalSV >= 0 && m.SV.Rows() != totalSV {
		return nil, fmt.Errorf("model: header declared %d SVs, found %d", totalSV, m.SV.Rows())
	}
	if wh.dim >= 0 || inW {
		w, err := buildW(wh, inW, wIdx, wVal)
		if err != nil {
			return nil, err
		}
		m.W = w
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// buildW reconstructs the dense hyperplane from the parsed W section and
// verifies it against the declared checksum. Header and section must both
// be present, indices ascending and in range, and the CRC must match —
// anything else is a corrupted or truncated file.
func buildW(wh wHeader, sawSection bool, idx []int32, val []float64) ([]float64, error) {
	if wh.dim < 0 {
		return nil, fmt.Errorf("model: W section without w_dim header")
	}
	if !sawSection {
		return nil, fmt.Errorf("model: w_dim declared but W section missing")
	}
	if !wh.hasCRC {
		return nil, fmt.Errorf("model: w_dim declared but w_crc header missing")
	}
	if wh.dim == 0 {
		return nil, fmt.Errorf("model: w_dim must be positive")
	}
	// Order, range and checksum are verified before the dense vector is
	// allocated, so a corrupted w_dim cannot demand the memory first.
	prev := int32(-1)
	for k, c := range idx {
		if c <= prev {
			return nil, fmt.Errorf("model: W indices not strictly ascending at entry %d", k)
		}
		if int(c) >= wh.dim {
			return nil, fmt.Errorf("model: W index %d out of range [1,%d]", c+1, wh.dim)
		}
		prev = c
	}
	if got := wChecksum(wh.dim, idx, val); got != wh.crc {
		return nil, fmt.Errorf("model: W checksum mismatch: file declares %d, contents hash to %d (corrupted model file)", wh.crc, got)
	}
	w := make([]float64, wh.dim)
	for k, c := range idx {
		w[c] = val[k]
	}
	return w, nil
}

// parseWLine appends the idx:val entries of one W-section line.
func parseWLine(line string, idx *[]int32, val *[]float64) error {
	for _, f := range strings.Fields(line) {
		idxStr, valStr, ok := strings.Cut(f, ":")
		if !ok {
			return fmt.Errorf("model: malformed W entry %q", f)
		}
		i, err := parseIndex(idxStr)
		if err != nil {
			return fmt.Errorf("model: W index %q", idxStr)
		}
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return fmt.Errorf("model: W value %q: %w", valStr, err)
		}
		*idx = append(*idx, i)
		*val = append(*val, v)
	}
	return nil
}

func parseHeader(m *Model, totalSV *int, wh *wHeader, th *taskHeader, key, val string) error {
	switch key {
	case "task_format":
		v, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("model: task_format: %w", err)
		}
		if v != 1 {
			return fmt.Errorf("model: unsupported task_format %d (this reader knows version 1)", v)
		}
		th.sawFormat = true
	case "task_crc":
		c, err := strconv.ParseUint(val, 10, 32)
		if err != nil {
			return fmt.Errorf("model: task_crc: %w", err)
		}
		th.crc = uint32(c)
		th.hasCRC = true
	case "svr_epsilon":
		return parseF(val, &m.Epsilon)
	case "nu":
		return parseF(val, &m.Nu)
	case "w_format":
		v, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("model: w_format: %w", err)
		}
		if v != 1 {
			return fmt.Errorf("model: unsupported w_format %d (this reader knows version 1)", v)
		}
	case "w_dim":
		d, err := strconv.Atoi(val)
		if err != nil || d <= 0 || d > math.MaxInt32 {
			return fmt.Errorf("model: w_dim %q", val)
		}
		wh.dim = d
	case "w_crc":
		c, err := strconv.ParseUint(val, 10, 32)
		if err != nil {
			return fmt.Errorf("model: w_crc: %w", err)
		}
		wh.crc = uint32(c)
		wh.hasCRC = true
	case "svm_type":
		t, err := ParseTask(val)
		if err != nil {
			return fmt.Errorf("model: unsupported svm_type %q", val)
		}
		m.Task = t
	case "kernel_type":
		t, err := kernel.ParseType(val)
		if err != nil {
			return err
		}
		m.Kernel.Type = t
	case "gamma":
		return parseF(val, &m.Kernel.Gamma)
	case "coef0":
		return parseF(val, &m.Kernel.Coef0)
	case "degree":
		d, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("model: degree: %w", err)
		}
		m.Kernel.Degree = d
	case "C":
		return parseF(val, &m.C)
	case "beta", "rho":
		return parseF(val, &m.Beta)
	case "prob_a":
		m.HasProb = true
		return parseF(val, &m.ProbA)
	case "prob_b":
		m.HasProb = true
		return parseF(val, &m.ProbB)
	case "train_samples":
		n, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("model: train_samples: %w", err)
		}
		m.TrainSamples = n
	case "iterations":
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return fmt.Errorf("model: iterations: %w", err)
		}
		m.Iterations = n
	case "total_sv":
		n, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("model: total_sv: %w", err)
		}
		*totalSV = n
	default:
		return fmt.Errorf("model: unknown header key %q", key)
	}
	return nil
}

// parseIndex parses a 1-based feature index into its 0-based int32 form,
// rejecting anything outside [1, MaxInt32] — the bound dataset.ParseLine
// applies — rather than wrapping it.
func parseIndex(s string) (int32, error) {
	i, err := strconv.ParseInt(s, 10, 32)
	if err != nil || i < 1 {
		return 0, fmt.Errorf("index %q", s)
	}
	return int32(i - 1), nil
}

func parseF(s string, out *float64) error {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return fmt.Errorf("model: parse float %q: %w", s, err)
	}
	*out = v
	return nil
}

func parseSVLine(line string) (float64, sparse.Row, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return 0, sparse.Row{}, fmt.Errorf("model: empty SV line")
	}
	coef, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return 0, sparse.Row{}, fmt.Errorf("model: SV coefficient %q: %w", fields[0], err)
	}
	var row sparse.Row
	for _, f := range fields[1:] {
		idxStr, valStr, ok := strings.Cut(f, ":")
		if !ok {
			return 0, sparse.Row{}, fmt.Errorf("model: malformed feature %q", f)
		}
		idx, err := parseIndex(idxStr)
		if err != nil {
			return 0, sparse.Row{}, fmt.Errorf("model: feature index %q", idxStr)
		}
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return 0, sparse.Row{}, fmt.Errorf("model: feature value %q: %w", valStr, err)
		}
		row.Idx = append(row.Idx, idx)
		row.Val = append(row.Val, val)
	}
	return coef, row, nil
}

// Save writes the model to a file.
func (m *Model) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := m.Write(f); err != nil {
		return err
	}
	return f.Close()
}

// Load reads a model from a file.
func Load(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
