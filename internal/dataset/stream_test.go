package dataset

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
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

// scanLibsvm is the reference whole-file reader the line loop is checked
// against: bufio.Scanner lines with a 64 MiB token cap, independent of
// chunkReader and readLines, mapping labels to +1/-1 like ReadLibsvm.
func scanLibsvm(r io.Reader) (*sparse.Matrix, []float64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	b := sparse.NewBuilder(0)
	var y []float64
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		label, row, err := ParseLine(line)
		if err != nil {
			return nil, nil, fmt.Errorf("libsvm: line %d: %w", lineNo, err)
		}
		if label > 0 {
			y = append(y, 1)
		} else {
			y = append(y, -1)
		}
		b.AddRow(row.Idx, row.Val)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("libsvm: %w", err)
	}
	return b.Build(), y, nil
}

// loadOOC writes data to a file, opens it out of core at the given read
// granularity and rows-per-block cap, and materializes the result; the
// budget is generous, so blockRows alone decides the block boundaries.
func loadOOC(t *testing.T, data []byte, chunkBytes, blockRows int) (*sparse.Matrix, []float64, error) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "data.libsvm")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ooc, y, err := openOOC(path, OOCOptions{SpillDir: dir, MemBudget: 1 << 30}, chunkBytes, blockRows)
	if err != nil {
		return nil, nil, err
	}
	defer ooc.Close()
	x, err := ooc.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return x, y, nil
}

// TestStreamParity is the property test of the line loop: on seeded random
// datasets, across chunk sizes that force lines to straddle chunk
// boundaries (7 bytes up to 1 MiB), across CRLF endings, missing trailing
// newline, and comment/blank lines, both the whole-file loop and the
// out-of-core loader (cut into blocks of 1, 13 and 4096 rows) produce a
// result bit-identical to the bufio.Scanner reference.
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
			wantX, wantY, err := scanLibsvm(bytes.NewReader(variant))
			if err != nil {
				t.Fatalf("seed %d %s: reference reader: %v", cse.seed, name, err)
			}
			check := func(what string, gotX *sparse.Matrix, gotY []float64, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("seed %d %s %s: %v", cse.seed, name, what, err)
				}
				if !matricesIdentical(wantX, gotX) {
					t.Fatalf("seed %d %s %s: matrix differs", cse.seed, name, what)
				}
				if !labelsIdentical(wantY, gotY) {
					t.Fatalf("seed %d %s %s: labels differ", cse.seed, name, what)
				}
			}
			gotX, gotY, err := ReadLibsvm(bytes.NewReader(variant))
			check("ReadLibsvm", gotX, gotY, err)
			for _, chunk := range chunks {
				gotX, gotY, err := readMatrix(newChunkReader(bytes.NewReader(variant), chunk), noEnd, false)
				check(fmt.Sprintf("chunk=%d", chunk), gotX, gotY, err)
				for _, blockRows := range []int{1, 13, 4096} {
					gotX, gotY, err := loadOOC(t, variant, chunk, blockRows)
					check(fmt.Sprintf("ooc chunk=%d block=%d", chunk, blockRows), gotX, gotY, err)
				}
			}
		}
	}
}

// TestStreamErrorLineNumbers checks the line loop reports the same line
// number and cause as the bufio.Scanner reference, whatever the chunk size.
func TestStreamErrorLineNumbers(t *testing.T) {
	const text = "+1 1:0.5\n# comment\n\n-1 2:1.5\n+1 3:bad\n-1 4:2\n"
	_, _, wantErr := scanLibsvm(strings.NewReader(text))
	if wantErr == nil {
		t.Fatal("the reference reader accepted the malformed line")
	}
	if !strings.Contains(wantErr.Error(), "line 5") {
		t.Fatalf("error does not name line 5: %q", wantErr)
	}
	_, _, err := ReadLibsvm(strings.NewReader(text))
	errs := map[string]error{"ReadLibsvm": err}
	for _, chunk := range []int{3, 1 << 20} {
		_, _, errs[fmt.Sprintf("chunk=%d", chunk)] = readMatrix(newChunkReader(strings.NewReader(text), chunk), noEnd, false)
		_, _, errs[fmt.Sprintf("ooc chunk=%d", chunk)] = loadOOC(t, []byte(text), chunk, 4096)
	}
	for what, err := range errs {
		if err == nil {
			t.Fatalf("%s accepted the malformed line", what)
		}
		if err.Error() != wantErr.Error() {
			t.Fatalf("%s: error %q, want %q", what, err, wantErr)
		}
	}
}

// blanks is an endless stream of spaces.
type blanks struct{}

var spaces = bytes.Repeat([]byte{' '}, 4096)

func (blanks) Read(p []byte) (int, error) { return copy(p, spaces), nil }

// longLineFile returns a valid first line followed by a second line just
// over maxLineBytes, generated on the fly so no copy of it is held.
func longLineFile() io.Reader {
	return io.MultiReader(strings.NewReader("+1 1:1\n+1"),
		io.LimitReader(blanks{}, maxLineBytes), strings.NewReader(" 2:1\n"))
}

// TestLineLengthBound checks that every reader rejects a line longer than
// 64 MiB, naming its line number, instead of buffering it.
func TestLineLengthBound(t *testing.T) {
	// Each reader buffers the 64 MiB before it gives up; collect the
	// garbage of its growing buffer early to keep the test's peak small.
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	const want = "line 2: longer than 67108864 bytes"
	check := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: error %v, want one containing %q", what, err, want)
		}
	}
	_, _, err := ReadLibsvm(longLineFile())
	check("ReadLibsvm", err)

	dir := t.TempDir()
	path := filepath.Join(dir, "long.libsvm")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(f, longLineFile()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = loadShard(path, 0, 1)
	check("loadShard", err)
	_, _, err = OpenOOC(path, OOCOptions{SpillDir: dir, MemBudget: 1 << 20})
	check("OpenOOC", err)
}

// TestChunkReaderOffsets checks offset/line bookkeeping, which the shard
// loader relies on for byte-range ownership.
func TestChunkReaderOffsets(t *testing.T) {
	const text = "aa\nbbbb\r\n\nc"
	cr := newChunkReader(strings.NewReader(text), 4)
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
		if got, line := cr.offset, cr.line; got != w.offset || line != w.line {
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
	if cr.offset != int64(len(text)) {
		t.Fatalf("final offset %d, want %d", cr.offset, len(text))
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
	wantX, wantY, err := scanLibsvm(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	ooc, gotY, err := openOOC(path, OOCOptions{
		SpillDir:  dir,
		MemBudget: 1 << 10, // far below the payload: forces evictions
	}, 64, 16)
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
// do not leave the spill file behind, and that a budget that is not
// positive is rejected.
func TestOpenOOCParseError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.libsvm")
	if err := os.WriteFile(path, []byte("+1 1:1\n+1 nope\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenOOC(path, OOCOptions{SpillDir: dir, MemBudget: 1 << 20})
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
	for _, budget := range []int64{0, -1} {
		_, _, err := OpenOOC(path, OOCOptions{SpillDir: dir, MemBudget: budget})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("memory budget %d bytes", budget)) {
			t.Fatalf("budget %d: error %v, want a rejection naming the budget", budget, err)
		}
	}
}
