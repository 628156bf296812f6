// The one libsvm line loop. Every reader in this package — ReadLibsvm,
// ReadLibsvmValues, the byte-range shard loader and OpenOOC — walks its
// input with a chunkReader, which consumes the byte stream in fixed-size
// chunks and re-assembles lines across chunk boundaries, and hands the
// lines to readLines, which skips blank and comment lines, parses the rest
// with ParseLine and passes each row on. The whole-file readers collect the
// rows into one matrix; OpenOOC cuts them into bounded CSR blocks and spills
// each block into a sparse.OOCMatrix as soon as it fills, so training
// proceeds with peak memory proportional to the budget, not the file.
package dataset

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"repro/internal/sparse"
)

const (
	// defaultChunkBytes is the read granularity of the chunked reader.
	defaultChunkBytes = 1 << 20
	// maxLineBytes bounds one raw line, terminator included, so a file
	// with no line breaks cannot grow the read buffer without limit.
	maxLineBytes = 64 << 20
	// noEnd is the end offset of a read that runs to EOF.
	noEnd = math.MaxInt64
)

// chunkReader yields the lines of a byte stream, reading fixed-size chunks
// and carrying partial lines across chunk boundaries. Unlike bufio.Scanner
// it reports the raw line including its terminator (so byte accounting is
// exact — see FuzzChunkSplit) and tracks the byte offset and 1-based line
// number of the next line, which the shard loader uses to honour byte-range
// ownership.
type chunkReader struct {
	r      io.Reader
	buf    []byte // unconsumed bytes; lines are cut from the front
	start  int    // parse position within buf
	offset int64  // stream offset of buf[start]: the next line's first byte
	line   int    // 1-based number of the next line Next returns
	chunk  int    // read granularity
	eof    bool
	err    error
}

// newChunkReader returns a chunkReader over r with the given chunk size.
func newChunkReader(r io.Reader, chunkBytes int) *chunkReader {
	return &chunkReader{r: r, chunk: chunkBytes, line: 1}
}

// Next returns the next raw line including its '\n' terminator (the final
// line of a terminator-less stream is returned bare), or io.EOF when the
// stream is exhausted. A line longer than maxLineBytes is an error. The
// returned slice is only valid until the next call. Concatenating every
// returned slice reproduces the input exactly.
func (c *chunkReader) Next() ([]byte, error) {
	for {
		rest := c.buf[c.start:]
		i := bytes.IndexByte(rest, '\n')
		n := i + 1 // the line's length, once its terminator is buffered
		if i < 0 {
			n = len(rest)
		}
		if n > maxLineBytes {
			return nil, fmt.Errorf("longer than %d bytes", maxLineBytes)
		}
		if i >= 0 || (c.eof && n > 0) {
			c.start += n
			c.offset += int64(n)
			c.line++
			return rest[:n], nil
		}
		if c.eof {
			if c.err != nil && c.err != io.EOF {
				return nil, c.err
			}
			return nil, io.EOF
		}
		// Compact the consumed prefix, then read one more chunk. The buffer
		// grows beyond one chunk only when a single line does.
		if c.start > 0 {
			c.buf = append(c.buf[:0], rest...)
			c.start = 0
		}
		pending := len(c.buf)
		c.buf = append(c.buf, make([]byte, c.chunk)...)
		n, err := io.ReadFull(c.r, c.buf[pending:])
		c.buf = c.buf[:pending+n]
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			c.eof = true
		} else if err != nil {
			c.eof, c.err = true, err
		}
	}
}

// readLines parses the libsvm lines of cr that start before byte end
// (relative to cr's first byte; noEnd reads to EOF), skipping blank and
// '#' lines. Each row goes to emit with its label sign-mapped — positive
// labels to +1, everything else to -1 — or, with verbatim, unchanged. Read
// and parse errors name the 1-based line number; emit's errors are returned
// as they are.
func readLines(cr *chunkReader, end int64, verbatim bool, emit func(label float64, row sparse.Row) error) error {
	for cr.offset < end {
		lineNo := cr.line
		raw, err := cr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("libsvm: line %d: %w", lineNo, err)
		}
		// TrimSpace also drops the "\n" or "\r\n" terminator.
		line := strings.TrimSpace(string(raw))
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		label, row, err := ParseLine(line)
		if err != nil {
			return fmt.Errorf("libsvm: line %d: %w", lineNo, err)
		}
		if !verbatim {
			if label > 0 {
				label = 1
			} else {
				label = -1
			}
		}
		if err := emit(label, row); err != nil {
			return err
		}
	}
	return nil
}

// readMatrix collects the rows readLines yields into one resident matrix.
func readMatrix(cr *chunkReader, end int64, verbatim bool) (*sparse.Matrix, []float64, error) {
	b := sparse.NewBuilder(0)
	var y []float64
	err := readLines(cr, end, verbatim, func(label float64, row sparse.Row) error {
		y = append(y, label)
		b.AddRow(row.Idx, row.Val)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return b.Build(), y, nil
}

// OOCOptions configures OpenOOC.
type OOCOptions struct {
	// SpillDir holds the spill file (default: the OS temp directory).
	SpillDir string
	// MemBudget bounds the resident decoded blocks of the returned matrix,
	// in bytes; it must be positive.
	MemBudget int64
}

// OpenOOC parses a libsvm file into an out-of-core matrix. Rows are
// collected into a block of up to 4096 rows and MemBudget/4 bytes, and each
// block is spilled to a temp file the moment it fills, so peak memory while
// loading is one block; there is no in-flight window. Row access afterwards
// is served from an LRU of resident blocks under opts.MemBudget. Labels
// (8 bytes/row) stay in memory. The caller owns Close on the matrix.
func OpenOOC(path string, opts OOCOptions) (*sparse.OOCMatrix, []float64, error) {
	return openOOC(path, opts, defaultChunkBytes, 4096)
}

// openOOC is OpenOOC with the read granularity and the rows-per-block cap
// exposed for tests.
func openOOC(path string, opts OOCOptions, chunkBytes, blockRows int) (*sparse.OOCMatrix, []float64, error) {
	if opts.MemBudget <= 0 {
		return nil, nil, fmt.Errorf("out-of-core: memory budget %d bytes, want > 0", opts.MemBudget)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	w, err := sparse.NewOOCWriter(opts.SpillDir, opts.MemBudget)
	if err != nil {
		return nil, nil, err
	}
	// Several blocks must fit the budget at once or the LRU cannot work;
	// a quarter-budget cap keeps peak resident bytes near the budget even
	// when the whole file is smaller than blockRows rows. A budget under
	// 4 bytes leaves only the row cap.
	maxBlockBytes := opts.MemBudget / 4
	b := sparse.NewBuilder(0)
	var (
		y        []float64
		blkBytes int64
		cols     int
	)
	flush := func() error {
		if b.Rows() == 0 {
			return nil
		}
		x := b.Build()
		cols = max(cols, x.Cols)
		b, blkBytes = sparse.NewBuilder(0), 0
		return w.AppendBlock(x)
	}
	err = readLines(newChunkReader(f, chunkBytes), noEnd, false, func(label float64, row sparse.Row) error {
		y = append(y, label)
		b.AddRow(row.Idx, row.Val)
		// 4 bytes per column index, 8 per value, 8 per row pointer: the
		// CSR payload this row contributes after Build.
		blkBytes += int64(len(row.Idx))*12 + 8
		if b.Rows() >= blockRows || (maxBlockBytes > 0 && blkBytes >= maxBlockBytes) {
			return flush()
		}
		return nil
	})
	if err == nil {
		err = flush()
	}
	if err != nil {
		w.Abort()
		return nil, nil, err
	}
	m, err := w.Finish(cols)
	if err != nil {
		return nil, nil, err
	}
	return m, y, nil
}
