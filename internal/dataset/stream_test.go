package dataset

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sparse"
)

// randomLibsvm renders a seeded random dataset as libsvm text together with
// the matrix/labels ReadLibsvm is expected to reproduce.
func randomLibsvm(t *testing.T, seed int64, rows, cols int, density float64) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := sparse.NewBuilder(cols)
	y := make([]float64, rows)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				// Mix magnitudes so shortest-round-trip formatting is exercised.
				b.Add(j, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(7)-3)))
			}
		}
		b.EndRow()
		if rng.Float64() < 0.5 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	var buf bytes.Buffer
	if err := WriteLibsvm(&buf, b.Build(), y); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// streamVariants derives the awkward encodings of one libsvm payload: CRLF
// line endings, a missing trailing newline, and interleaved comment/blank
// lines. Each remains semantically identical to the original.
func streamVariants(data []byte) map[string][]byte {
	crlf := bytes.ReplaceAll(data, []byte("\n"), []byte("\r\n"))
	noEOL := bytes.TrimSuffix(data, []byte("\n"))
	var commented bytes.Buffer
	commented.WriteString("# header comment\n\n")
	for i, line := range bytes.SplitAfter(data, []byte("\n")) {
		commented.Write(line)
		if i%3 == 2 {
			commented.WriteString("\n# interleaved\n  \n")
		}
	}
	return map[string][]byte{
		"plain":     data,
		"crlf":      crlf,
		"noEOL":     noEOL,
		"commented": commented.Bytes(),
	}
}

func matricesIdentical(a, b *sparse.Matrix) bool {
	if a.Rows() != b.Rows() || a.Cols != b.Cols || a.NNZ() != b.NNZ() {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for k := range a.ColIdx {
		if a.ColIdx[k] != b.ColIdx[k] || math.Float64bits(a.Val[k]) != math.Float64bits(b.Val[k]) {
			return false
		}
	}
	return true
}

func labelsIdentical(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// drainStream reads every StreamLibsvm block and splices them into one
// matrix, the whole-file result ReadLibsvm is compared against.
func drainStream(r io.Reader, opt StreamOptions) (*sparse.Matrix, []float64, error) {
	s := StreamLibsvm(r, opt)
	defer s.Close()
	var parts []*sparse.Matrix
	var y []float64
	for {
		blk, ok := s.Next()
		if !ok {
			break
		}
		parts = append(parts, blk.X)
		y = append(y, blk.Y...)
	}
	if err := s.Err(); err != nil {
		return nil, nil, err
	}
	return concatMatrices(parts), y, nil
}

// TestStreamParity is the property test of the streaming reader: on seeded
// random datasets, across chunk sizes that force lines to straddle chunk
// boundaries (7 bytes up to 1 MiB), across CRLF endings, missing trailing
// newline, and comment/blank lines, StreamLibsvm reassembles a result
// bit-identical to ReadLibsvm.
func TestStreamParity(t *testing.T) {
	chunks := []int{7, 64, 4 << 10, 1 << 20}
	for _, cse := range []struct {
		seed       int64
		rows, cols int
		density    float64
	}{
		{seed: 1, rows: 83, cols: 40, density: 0.15},
		{seed: 2, rows: 17, cols: 600, density: 0.30}, // long lines vs 64B chunks
		{seed: 3, rows: 200, cols: 8, density: 0.9},
	} {
		data := randomLibsvm(t, cse.seed, cse.rows, cse.cols, cse.density)
		for name, variant := range streamVariants(data) {
			wantX, wantY, err := ReadLibsvm(bytes.NewReader(variant))
			if err != nil {
				t.Fatalf("seed %d %s: ReadLibsvm: %v", cse.seed, name, err)
			}
			for _, chunk := range chunks {
				for _, blockRows := range []int{1, 13, 4096} {
					gotX, gotY, err := drainStream(bytes.NewReader(variant),
						StreamOptions{ChunkBytes: chunk, BlockRows: blockRows})
					if err != nil {
						t.Fatalf("seed %d %s chunk=%d block=%d: %v", cse.seed, name, chunk, blockRows, err)
					}
					if !matricesIdentical(wantX, gotX) {
						t.Fatalf("seed %d %s chunk=%d block=%d: matrix differs", cse.seed, name, chunk, blockRows)
					}
					if !labelsIdentical(wantY, gotY) {
						t.Fatalf("seed %d %s chunk=%d block=%d: labels differ", cse.seed, name, chunk, blockRows)
					}
				}
			}
		}
	}
}

// TestStreamErrorLineNumbers checks the streamed parser reports the same
// line number and cause as the whole-file parser.
func TestStreamErrorLineNumbers(t *testing.T) {
	const text = "+1 1:0.5\n# comment\n\n-1 2:1.5\n+1 3:bad\n-1 4:2\n"
	_, _, wantErr := ReadLibsvm(strings.NewReader(text))
	if wantErr == nil {
		t.Fatal("ReadLibsvm accepted the malformed line")
	}
	for _, chunk := range []int{3, 1 << 20} {
		_, _, err := drainStream(strings.NewReader(text), StreamOptions{ChunkBytes: chunk})
		if err == nil {
			t.Fatalf("chunk=%d: streamed reader accepted the malformed line", chunk)
		}
		if err.Error() != wantErr.Error() {
			t.Fatalf("chunk=%d: error %q, want %q", chunk, err, wantErr)
		}
	}
	if !strings.Contains(wantErr.Error(), "line 5") {
		t.Fatalf("error does not name line 5: %q", wantErr)
	}
}

// TestChunkReaderOffsets checks offset/line bookkeeping, which the shard
// loader relies on for byte-range ownership.
func TestChunkReaderOffsets(t *testing.T) {
	const text = "aa\nbbbb\r\n\nc"
	cr := NewChunkReader(strings.NewReader(text), 4)
	wants := []struct {
		raw    string
		offset int64
		line   int
	}{
		{"aa\n", 0, 1},
		{"bbbb\r\n", 3, 2},
		{"\n", 9, 3},
		{"c", 10, 4},
	}
	for _, w := range wants {
		if got, line := cr.Offset(), cr.Line(); got != w.offset || line != w.line {
			t.Fatalf("before %q: offset=%d line=%d, want %d/%d", w.raw, got, line, w.offset, w.line)
		}
		raw, err := cr.Next()
		if err != nil {
			t.Fatalf("Next before %q: %v", w.raw, err)
		}
		if string(raw) != w.raw {
			t.Fatalf("raw %q, want %q", raw, w.raw)
		}
	}
	if _, err := cr.Next(); err == nil {
		t.Fatal("expected EOF")
	}
	if cr.Offset() != int64(len(text)) {
		t.Fatalf("final offset %d, want %d", cr.Offset(), len(text))
	}
}

// TestStreamEarlyClose abandons a stream after one block; the test passing
// at all (and under -race) proves the producer exits rather than deadlocks
// on the budget or the send.
func TestStreamEarlyClose(t *testing.T) {
	data := randomLibsvm(t, 9, 400, 30, 0.3)
	s := StreamLibsvm(bytes.NewReader(data), StreamOptions{BlockRows: 10, MaxInFlightBytes: 1})
	if _, ok := s.Next(); !ok {
		t.Fatalf("no first block: %v", s.Err())
	}
	s.Close()
	s.Close() // idempotent
	if err := s.Err(); err != nil {
		t.Fatalf("unexpected error after close: %v", err)
	}
}

// TestStreamBlockOffsets checks Lo tracks the global row index of each
// block, skipping comment lines.
func TestStreamBlockOffsets(t *testing.T) {
	const text = "# c\n+1 1:1\n-1 1:2\n\n+1 1:3\n-1 1:4\n+1 1:5\n"
	s := StreamLibsvm(strings.NewReader(text), StreamOptions{BlockRows: 2})
	defer s.Close()
	var los []int
	rows := 0
	for {
		blk, ok := s.Next()
		if !ok {
			break
		}
		if blk.Lo != rows {
			t.Fatalf("block Lo=%d, want %d", blk.Lo, rows)
		}
		los = append(los, blk.Lo)
		rows += blk.X.Rows()
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if rows != 5 || len(los) != 3 {
		t.Fatalf("rows=%d blocks=%d, want 5 rows in 3 blocks", rows, len(los))
	}
}

// TestOpenOOC round-trips a libsvm file through the out-of-core path and
// compares the materialized matrix with the in-memory loader.
func TestOpenOOC(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.libsvm")
	data := randomLibsvm(t, 11, 150, 50, 0.2)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	wantX, wantY, err := LoadLibsvmFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ooc, gotY, err := OpenOOC(path, OOCOptions{
		Stream:    StreamOptions{ChunkBytes: 64, BlockRows: 16},
		SpillDir:  dir,
		MemBudget: 1 << 10, // far below the payload: forces evictions
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ooc.Close()
	if !labelsIdentical(wantY, gotY) {
		t.Fatal("labels differ")
	}
	if ooc.Rows() != wantX.Rows() || ooc.Dim() != wantX.Cols {
		t.Fatalf("shape %dx%d, want %dx%d", ooc.Rows(), ooc.Dim(), wantX.Rows(), wantX.Cols)
	}
	got, err := ooc.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if !matricesIdentical(wantX, got) {
		t.Fatal("materialized matrix differs from in-memory load")
	}
	// Random row access parity under the tight budget.
	rng := rand.New(rand.NewSource(12))
	for k := 0; k < 500; k++ {
		i := rng.Intn(wantX.Rows())
		a, b := wantX.RowView(i), ooc.RowView(i)
		if len(a.Idx) != len(b.Idx) {
			t.Fatalf("row %d nnz differs", i)
		}
		for j := range a.Idx {
			if a.Idx[j] != b.Idx[j] || math.Float64bits(a.Val[j]) != math.Float64bits(b.Val[j]) {
				t.Fatalf("row %d entry %d differs", i, j)
			}
		}
	}
}

// TestOpenOOCParseError checks parse failures surface with line numbers and
// do not leave the spill file behind.
func TestOpenOOCParseError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.libsvm")
	if err := os.WriteFile(path, []byte("+1 1:1\n+1 nope\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenOOC(path, OOCOptions{SpillDir: dir})
	if err == nil {
		t.Fatal("OpenOOC accepted a malformed file")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error does not name the line: %v", err)
	}
	spills, _ := filepath.Glob(filepath.Join(dir, "*.spill"))
	if len(spills) != 0 {
		t.Fatalf("spill files left behind: %v", spills)
	}
}
