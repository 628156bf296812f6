// Out-of-core streaming data path. ReadLibsvm holds the whole dataset
// resident while parsing — at the paper's true scales (HIGGS: 2.6M rows)
// that makes RAM the binding constraint before any solver runs. This file
// adds the chunk-at-a-time alternative: a ChunkReader that consumes the
// byte stream in fixed-size chunks and re-assembles lines across chunk
// boundaries, a StreamLibsvm producer that parses those lines into bounded
// CSR blocks handed over a channel under a byte budget, and OpenOOC, which
// spills the blocks into a sparse.OOCMatrix so training proceeds with peak
// memory proportional to the budget, not the file.
package dataset

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"repro/internal/sparse"
)

// DefaultChunkBytes is the read granularity of the chunked reader.
const DefaultChunkBytes = 1 << 20

// ChunkReader yields the lines of a byte stream, reading fixed-size chunks
// and carrying partial lines across chunk boundaries. Unlike bufio.Scanner
// it reports the raw line including its terminator (so byte accounting is
// exact — see FuzzChunkSplit) and tracks the byte offset and 1-based line
// number of the next line, which the shard loader uses to honour byte-range
// ownership.
type ChunkReader struct {
	r      io.Reader
	buf    []byte // unconsumed bytes; lines are cut from the front
	start  int    // parse position within buf
	offset int64  // stream offset of buf[start]
	line   int    // 1-based number of the next line Next returns
	chunk  int    // read granularity
	eof    bool
	err    error
}

// NewChunkReader returns a ChunkReader over r with the given chunk size
// (<= 0 selects DefaultChunkBytes).
func NewChunkReader(r io.Reader, chunkBytes int) *ChunkReader {
	if chunkBytes <= 0 {
		chunkBytes = DefaultChunkBytes
	}
	return &ChunkReader{r: r, chunk: chunkBytes, line: 1}
}

// Offset returns the stream offset of the first byte of the next line.
func (c *ChunkReader) Offset() int64 { return c.offset }

// Line returns the 1-based line number of the next line.
func (c *ChunkReader) Line() int { return c.line }

// Next returns the next raw line including its '\n' terminator (the final
// line of a terminator-less stream is returned bare), or io.EOF when the
// stream is exhausted. The returned slice is only valid until the next
// call. Concatenating every returned slice reproduces the input exactly.
func (c *ChunkReader) Next() ([]byte, error) {
	for {
		// A complete line already buffered?
		if i := bytes.IndexByte(c.buf[c.start:], '\n'); i >= 0 {
			raw := c.buf[c.start : c.start+i+1]
			c.start += i + 1
			c.offset += int64(len(raw))
			c.line++
			return raw, nil
		}
		if c.eof {
			if c.start < len(c.buf) {
				raw := c.buf[c.start:]
				c.start = len(c.buf)
				c.offset += int64(len(raw))
				c.line++
				return raw, nil
			}
			if c.err != nil && c.err != io.EOF {
				return nil, c.err
			}
			return nil, io.EOF
		}
		// Compact the consumed prefix, then read one more chunk. The buffer
		// grows beyond one chunk only when a single line does.
		if c.start > 0 {
			c.buf = append(c.buf[:0], c.buf[c.start:]...)
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

// TrimEOL strips one trailing "\n" or "\r\n", plus a bare trailing "\r" on
// a terminator-less final line — byte-for-byte what bufio.ScanLines leaves
// in its tokens, which is what the whole-file reader parses.
func TrimEOL(raw []byte) []byte {
	if n := len(raw); n > 0 && raw[n-1] == '\n' {
		raw = raw[:n-1]
	}
	if n := len(raw); n > 0 && raw[n-1] == '\r' {
		raw = raw[:n-1]
	}
	return raw
}

// StreamOptions configures StreamLibsvm.
type StreamOptions struct {
	// ChunkBytes is the read granularity (default DefaultChunkBytes).
	ChunkBytes int
	// BlockRows caps the rows per emitted block (default 4096).
	BlockRows int
	// MaxBlockBytes additionally caps the decoded CSR payload per block, so
	// wide rows cannot inflate a block past a memory budget (<= 0 disables
	// the cap; a single row larger than the cap still forms its own block).
	MaxBlockBytes int64
	// MaxInFlightBytes bounds the decoded CSR bytes buffered between the
	// producer and the consumer (default 64 MiB). A single oversized block
	// is still admitted, so progress never deadlocks.
	MaxInFlightBytes int64
}

func (o StreamOptions) withDefaults() StreamOptions {
	if o.ChunkBytes <= 0 {
		o.ChunkBytes = DefaultChunkBytes
	}
	if o.BlockRows <= 0 {
		o.BlockRows = 4096
	}
	if o.MaxInFlightBytes <= 0 {
		o.MaxInFlightBytes = 64 << 20
	}
	return o
}

// Block is one parsed slice of the stream: rows [Lo, Lo+X.Rows()) of the
// dataset in file order, with sign-mapped labels exactly as ReadLibsvm
// produces them.
type Block struct {
	X  *sparse.Matrix
	Y  []float64
	Lo int // global row index of X's first row
}

// Stream is a running StreamLibsvm producer. Consume with Next; a block's
// budget charge is released when the following Next call hands it back.
type Stream struct {
	ch     chan Block
	done   chan struct{}
	closed sync.Once

	mu      sync.Mutex
	charged int64
	cond    *sync.Cond
	budget  int64

	errMu sync.Mutex
	err   error

	prev int64 // charge of the block most recently handed out
}

// Next returns the next block. ok is false when the stream is exhausted or
// failed — check Err. Calling Next releases the previously returned block's
// byte charge, so a consumer that processes one block at a time holds at
// most one block plus the producer's in-flight window.
func (s *Stream) Next() (Block, bool) {
	s.release(s.prev)
	s.prev = 0
	b, ok := <-s.ch
	if ok {
		s.prev = int64(b.X.ByteSize())
	}
	return b, ok
}

// Err reports the first error the producer hit (nil after a clean EOF).
func (s *Stream) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

// Close abandons the stream early; the producer goroutine exits promptly.
// Safe to call multiple times and after exhaustion.
func (s *Stream) Close() {
	s.closed.Do(func() {
		close(s.done)
		// Wake a producer parked on the budget so it can observe done.
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
		// Drain so a producer blocked on the send also completes.
		go func() {
			for range s.ch {
			}
		}()
	})
}

func (s *Stream) setErr(err error) {
	s.errMu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.errMu.Unlock()
}

// charge blocks until size fits the in-flight budget (an oversized single
// block is admitted alone), or the stream is closed.
func (s *Stream) charge(size int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		select {
		case <-s.done:
			return false
		default:
		}
		if s.charged == 0 || s.charged+size <= s.budget {
			s.charged += size
			return true
		}
		s.cond.Wait()
	}
}

func (s *Stream) release(size int64) {
	if size == 0 {
		return
	}
	s.mu.Lock()
	s.charged -= size
	s.cond.Broadcast()
	s.mu.Unlock()
}

// StreamLibsvm parses the libsvm text format incrementally: the reader is
// consumed in opt.ChunkBytes chunks, complete lines are parsed with the
// same ParseLine/sign-mapping pipeline as ReadLibsvm, and blocks of up to
// opt.BlockRows rows are delivered through the returned Stream. The
// concatenation of all blocks is bit-identical to ReadLibsvm on the same
// bytes (see TestStreamParity); errors carry the same 1-based line numbers.
func StreamLibsvm(r io.Reader, opt StreamOptions) *Stream {
	opt = opt.withDefaults()
	s := &Stream{
		ch:     make(chan Block, 16),
		done:   make(chan struct{}),
		budget: opt.MaxInFlightBytes,
	}
	s.cond = sync.NewCond(&s.mu)
	go func() {
		defer close(s.ch)
		cr := NewChunkReader(r, opt.ChunkBytes)
		b := sparse.NewBuilder(0)
		var y []float64
		lo := 0
		var blkBytes int64
		flush := func() bool {
			if b.Rows() == 0 {
				return true
			}
			blk := Block{X: b.Build(), Y: y, Lo: lo}
			if !s.charge(int64(blk.X.ByteSize())) {
				return false
			}
			select {
			case s.ch <- blk:
			case <-s.done:
				s.release(int64(blk.X.ByteSize()))
				return false
			}
			lo += blk.X.Rows()
			b = sparse.NewBuilder(0)
			y = nil
			blkBytes = 0
			return true
		}
		for {
			lineNo := cr.Line()
			raw, err := cr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				s.setErr(fmt.Errorf("libsvm: %w", err))
				return
			}
			line := strings.TrimSpace(string(TrimEOL(raw)))
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			label, row, err := ParseLine(line)
			if err != nil {
				s.setErr(fmt.Errorf("libsvm: line %d: %w", lineNo, err))
				return
			}
			if label > 0 {
				y = append(y, 1)
			} else {
				y = append(y, -1)
			}
			b.AddRow(row.Idx, row.Val)
			// 4 bytes per column index, 8 per value, 8 per row pointer:
			// the CSR payload this row contributes after Build.
			blkBytes += int64(len(row.Idx))*12 + 8
			if b.Rows() >= opt.BlockRows ||
				(opt.MaxBlockBytes > 0 && blkBytes >= opt.MaxBlockBytes) {
				if !flush() {
					return
				}
			}
		}
		flush()
	}()
	return s
}

// concatMatrices splices row blocks into one matrix with exact
// preallocation. An empty input yields an empty 0-column matrix, matching
// ReadLibsvm on an empty file.
func concatMatrices(parts []*sparse.Matrix) *sparse.Matrix {
	rows, cols := 0, 0
	var nnz int64
	for _, p := range parts {
		rows += p.Rows()
		nnz += int64(p.NNZ())
		if p.Cols > cols {
			cols = p.Cols
		}
	}
	out := &sparse.Matrix{
		RowPtr: make([]int64, 1, rows+1),
		ColIdx: make([]int32, 0, nnz),
		Val:    make([]float64, 0, nnz),
		Cols:   cols,
	}
	for _, p := range parts {
		base := int64(len(out.Val))
		for i := 1; i <= p.Rows(); i++ {
			out.RowPtr = append(out.RowPtr, base+p.RowPtr[i])
		}
		out.ColIdx = append(out.ColIdx, p.ColIdx...)
		out.Val = append(out.Val, p.Val...)
	}
	return out
}

// OOCOptions configures OpenOOC.
type OOCOptions struct {
	// Stream configures the chunked parse.
	Stream StreamOptions
	// SpillDir holds the spill file (default: the OS temp directory).
	SpillDir string
	// MemBudget bounds the resident decoded blocks of the returned matrix
	// (default 256 MiB).
	MemBudget int64
}

// OpenOOC stream-parses a libsvm file into an out-of-core matrix: blocks
// are spilled to a temp file as they are parsed, so peak memory during
// loading is one block plus the in-flight window, and row access afterwards
// is served from an LRU of resident blocks under opts.MemBudget. Labels
// (8 bytes/row) stay in memory. The caller owns Close on the matrix.
func OpenOOC(path string, opts OOCOptions) (*sparse.OOCMatrix, []float64, error) {
	if opts.MemBudget <= 0 {
		opts.MemBudget = 256 << 20
	}
	// Blocks travel straight from the parser into the spill file; the
	// in-flight window only needs to cover the handoff.
	if opts.Stream.MaxInFlightBytes <= 0 {
		opts.Stream.MaxInFlightBytes = opts.MemBudget / 4
	}
	// Several blocks must fit the budget at once or the LRU cannot work;
	// a quarter-budget cap keeps peak resident bytes near the budget even
	// when the whole file is smaller than BlockRows rows.
	if opts.Stream.MaxBlockBytes <= 0 {
		opts.Stream.MaxBlockBytes = opts.MemBudget / 4
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
	s := StreamLibsvm(f, opts.Stream)
	defer s.Close()
	var y []float64
	cols := 0
	for {
		blk, ok := s.Next()
		if !ok {
			break
		}
		if err := w.AppendBlock(blk.X); err != nil {
			w.Abort()
			return nil, nil, err
		}
		y = append(y, blk.Y...)
		if blk.X.Cols > cols {
			cols = blk.X.Cols
		}
	}
	if err := s.Err(); err != nil {
		w.Abort()
		return nil, nil, err
	}
	m, err := w.Finish(cols)
	if err != nil {
		return nil, nil, err
	}
	return m, y, nil
}
