package sparse

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
)

// Out-of-core CSR: the paper's headline runs are at millions of rows, where
// the training matrix no longer fits a node's RAM — exactly the "more RAM is
// the binding constraint" observation of the large-scale-SVM literature. An
// OOCMatrix keeps the CSR payload in contiguous row blocks spilled to one
// unnamed temp file and caches a byte-budgeted LRU of resident blocks, so a
// solver whose access pattern is row-at-a-time (sparse.RowMatrix) trains
// with peak memory proportional to the budget, not the dataset.
//
// Blocks are written once by an OOCWriter (dataset.OpenOOC appends each
// block of parsed rows as soon as it fills) and are immutable
// afterwards. When the budget is smaller than the payload, a resident block
// is cached exactly as encoded in the spill file, and RowView copies the one
// requested row out of it, so no row handed out ever aliases cache storage:
// the buffer of a block evicted to make room is reused for the very load
// that evicted it, and steady-state training allocates only the rows it
// reads. When the budget holds the whole payload nothing is ever evicted, so
// each block is decoded once on its first load and rows alias it, as they do
// an in-memory Matrix: a fully-resident pass allocates nothing.

// blockMeta locates one spilled row block inside the spill file.
type blockMeta struct {
	off      int64 // file offset of the encoded block payload
	startRow int   // global index of the block's first row
	rows     int
	nnz      int64
}

// The encoded block layout, little-endian: (rows+1) uint64 row pointers
// relative to the block, then nnz uint32 column indices, then nnz float64
// values as IEEE-754 bits.

// colOff is the byte offset of the block's column indices.
func (b blockMeta) colOff() int64 { return 8 * int64(b.rows+1) }

// valOff is the byte offset of the block's values.
func (b blockMeta) valOff() int64 { return b.colOff() + 4*b.nnz }

// payloadBytes is the encoded (and resident) size of the block.
func (b blockMeta) payloadBytes() int64 { return b.valOff() + 8*b.nnz }

// rowPtr decodes the block-relative start of row k (k == rows gives nnz).
func rowPtr(buf []byte, k int) int64 {
	return int64(binary.LittleEndian.Uint64(buf[8*k:]))
}

// decode decodes a whole encoded block into a standalone Matrix.
func (b blockMeta) decode(buf []byte, cols int) *Matrix {
	x := &Matrix{
		RowPtr: make([]int64, b.rows+1),
		ColIdx: make([]int32, b.nnz),
		Val:    make([]float64, b.nnz),
		Cols:   cols,
	}
	for k := range x.RowPtr {
		x.RowPtr[k] = rowPtr(buf, k)
	}
	b.decodeEntries(buf, 0, x.ColIdx, x.Val)
	return x
}

// decodeEntries decodes the block's entries [lo, lo+len(idx)) from buf,
// laid out as b describes, into idx and val.
func (b blockMeta) decodeEntries(buf []byte, lo int64, idx []int32, val []float64) {
	c := buf[b.colOff()+4*lo:]
	for k := range idx {
		idx[k] = int32(binary.LittleEndian.Uint32(c[4*k:]))
	}
	v := buf[b.valOff()+8*lo:]
	for k := range val {
		val[k] = math.Float64frombits(binary.LittleEndian.Uint64(v[8*k:]))
	}
}

// OOCWriter builds an OOCMatrix by appending row blocks in global row
// order. It is not safe for concurrent use.
type OOCWriter struct {
	f       *os.File
	path    string
	blocks  []blockMeta
	rows    int
	cols    int
	budget  int64
	off     int64
	scratch []byte
}

// NewOOCWriter creates a spill file in dir (or the default temp directory
// when dir is empty) and returns a writer over it. budgetBytes is the
// resident-block budget the finished matrix will enforce; <= 0 means one
// block at a time.
func NewOOCWriter(dir string, budgetBytes int64) (*OOCWriter, error) {
	f, err := os.CreateTemp(dir, "svm-ooc-*.spill")
	if err != nil {
		return nil, fmt.Errorf("sparse: ooc spill file: %w", err)
	}
	return &OOCWriter{f: f, path: f.Name(), budget: budgetBytes}, nil
}

// AppendBlock encodes x as the next row block. The block's rows follow the
// rows appended so far; Cols of the finished matrix is the maximum over all
// blocks (callers with a declared dimensionality can widen it via Finish).
func (w *OOCWriter) AppendBlock(x *Matrix) error {
	if x.Rows() == 0 {
		return nil
	}
	// The block's entry count comes from the row pointers, not len(Val):
	// a RowRangeView shares the parent's payload slices, and only the
	// pointer span tells how much of them the view actually covers.
	base := x.RowPtr[0]
	meta := blockMeta{off: w.off, startRow: w.rows, rows: x.Rows(), nnz: x.RowPtr[x.Rows()] - base}
	need := meta.payloadBytes()
	if int64(cap(w.scratch)) < need {
		w.scratch = make([]byte, need)
	}
	buf := w.scratch[:need]
	o := 0
	for _, p := range x.RowPtr {
		binary.LittleEndian.PutUint64(buf[o:], uint64(p-base))
		o += 8
	}
	for _, c := range x.ColIdx[base : base+meta.nnz] {
		binary.LittleEndian.PutUint32(buf[o:], uint32(c))
		o += 4
	}
	for _, v := range x.Val[base : base+meta.nnz] {
		binary.LittleEndian.PutUint64(buf[o:], math.Float64bits(v))
		o += 8
	}
	if _, err := w.f.WriteAt(buf, meta.off); err != nil {
		return fmt.Errorf("sparse: ooc spill write: %w", err)
	}
	w.off += need
	w.rows += meta.rows
	if x.Cols > w.cols {
		w.cols = x.Cols
	}
	w.blocks = append(w.blocks, meta)
	return nil
}

// Finish seals the writer and returns the matrix over the spilled blocks.
// cols widens the declared dimensionality when positive (a dataset's header
// may declare more features than the spilled rows touch); the writer must
// not be used afterwards.
func (w *OOCWriter) Finish(cols int) (*OOCMatrix, error) {
	if w.rows == 0 {
		w.Abort()
		return nil, fmt.Errorf("sparse: ooc matrix has no rows")
	}
	if cols > w.cols {
		w.cols = cols
	}
	m := &OOCMatrix{
		f: w.f, path: w.path, blocks: w.blocks,
		rows: w.rows, cols: w.cols, budget: w.budget,
		resident: make(map[int]*list.Element), ll: list.New(),
	}
	m.allResident = m.budget >= m.ByteSize()
	w.f = nil
	return m, nil
}

// Abort discards the spill file; safe to call after a failed build.
func (w *OOCWriter) Abort() {
	if w.f != nil {
		w.f.Close()
		os.Remove(w.path)
		w.f = nil
	}
}

// residentBlock is one cached block: its encoded payload, or the decoded
// block in a matrix whose budget holds every block.
type residentBlock struct {
	idx int
	buf []byte  // encoded payload; len is the payload size, cap may be larger after reuse
	dec *Matrix // set instead of buf when the matrix never evicts
}

// OOCMatrix is a read-only CSR matrix whose row blocks live in a spill file
// with an LRU of resident blocks. It satisfies RowMatrix. A row RowView
// returns stays valid however the cache churns afterwards: under a budget
// smaller than the payload it is a fresh copy, otherwise a view of a block
// that is never evicted. Reused buffers keep their capacity, and besides the
// resident blocks the matrix holds at most one spare evicted buffer, so the
// memory it holds can exceed the budget by up to one block plus that
// capacity slack. All methods are safe for concurrent use; RowView panics
// if the spill file has become unreadable (it is process-private and
// unmodified after Finish, so a read failure is an environment failure, not
// a recoverable condition).
type OOCMatrix struct {
	mu            sync.Mutex
	f             *os.File
	path          string
	blocks        []blockMeta
	rows, cols    int
	budget        int64
	resident      map[int]*list.Element
	ll            *list.List // front = most recently used
	residentBytes int64
	allResident   bool   // the budget holds every block: nothing is ever evicted
	spare         []byte // an evicted buffer no load has taken yet
	loads         uint64
	hits          uint64
	evictions     uint64
	closed        bool
}

// Rows returns the number of rows.
func (m *OOCMatrix) Rows() int { return m.rows }

// Dim returns the number of columns.
func (m *OOCMatrix) Dim() int { return m.cols }

// Blocks returns the number of spilled row blocks.
func (m *OOCMatrix) Blocks() int { return len(m.blocks) }

// ByteSize reports the total encoded payload across all blocks — the
// in-memory cost a fully-resident load would pay.
func (m *OOCMatrix) ByteSize() int64 {
	var s int64
	for _, b := range m.blocks {
		s += b.payloadBytes()
	}
	return s
}

// Stats reports cache behaviour since creation: block loads from disk,
// in-cache hits, and evictions.
func (m *OOCMatrix) Stats() (loads, hits, evictions uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.loads, m.hits, m.evictions
}

// blockFor returns the index of the block holding global row i.
func (m *OOCMatrix) blockFor(i int) int {
	// First block whose startRow exceeds i, minus one.
	return sort.Search(len(m.blocks), func(k int) bool { return m.blocks[k].startRow > i }) - 1
}

// RowView returns global row i: a view of its decoded block when the
// matrix never evicts, otherwise a copy decoded from its resident block that
// shares nothing with the cache.
func (m *OOCMatrix) RowView(i int) Row {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("sparse: ooc RowView(%d) out of range for %d rows", i, m.rows))
	}
	bi := m.blockFor(i)
	meta := m.blocks[bi]
	k := i - meta.startRow
	// Decode under the lock: once it is released, another load may evict
	// this block and reuse its buffer.
	m.mu.Lock()
	defer m.mu.Unlock()
	rb := m.block(bi)
	if rb.dec != nil {
		return rb.dec.RowView(k)
	}
	buf := rb.buf
	lo, hi := rowPtr(buf, k), rowPtr(buf, k+1)
	r := Row{Idx: make([]int32, hi-lo), Val: make([]float64, hi-lo)}
	meta.decodeEntries(buf, lo, r.Idx, r.Val)
	return r
}

// block returns resident block bi, loading and caching it if needed. The
// caller holds m.mu.
func (m *OOCMatrix) block(bi int) *residentBlock {
	if m.closed {
		panic("sparse: ooc matrix used after Close")
	}
	if el, ok := m.resident[bi]; ok {
		m.hits++
		m.ll.MoveToFront(el)
		return el.Value.(*residentBlock)
	}
	need := m.blocks[bi].payloadBytes()
	// Evict past the budget before reading. The block about to load is
	// never evicted: with a budget smaller than one block the cache degrades
	// to block-at-a-time. The load takes the smallest buffer that fits among
	// the spare and the evicted ones; the largest leftover becomes the next
	// spare, so a load that evicts nothing (after one that evicted two)
	// need not allocate either.
	var buf, spare []byte
	offer := func(b []byte) {
		if int64(cap(b)) >= need && (buf == nil || cap(b) < cap(buf)) {
			buf, b = b, buf
		}
		if cap(b) > cap(spare) {
			spare = b
		}
	}
	offer(m.spare)
	for m.residentBytes+need > m.budget && m.ll.Len() > 0 {
		old := m.ll.Remove(m.ll.Back()).(*residentBlock)
		delete(m.resident, old.idx)
		m.residentBytes -= int64(len(old.buf))
		m.evictions++
		offer(old.buf)
	}
	m.spare = spare
	if buf == nil {
		buf = make([]byte, need)
	}
	buf = buf[:need]
	if _, err := m.f.ReadAt(buf, m.blocks[bi].off); err != nil {
		panic(fmt.Sprintf("sparse: ooc block %d: %v", bi, err))
	}
	m.loads++
	rb := &residentBlock{idx: bi, buf: buf}
	if m.allResident {
		// No buffer will ever be reused, so rows may alias the block: decode
		// it once (the decoded block is exactly the payload's size).
		rb.buf, rb.dec = nil, m.blocks[bi].decode(buf, m.cols)
	}
	m.resident[bi] = m.ll.PushFront(rb)
	m.residentBytes += need
	return rb
}

// Materialize reads every block and splices one fully-resident Matrix —
// deliberately unbounded, for verification and tests that need the whole
// dataset (the oracle recomputes objectives over all rows). The LRU cache
// is bypassed so materializing does not disturb a training run's residency.
func (m *OOCMatrix) Materialize() (*Matrix, error) {
	var nnz, maxPayload int64
	for _, b := range m.blocks {
		nnz += b.nnz
		maxPayload = max(maxPayload, b.payloadBytes())
	}
	out := &Matrix{
		RowPtr: make([]int64, 1, m.rows+1),
		ColIdx: make([]int32, nnz),
		Val:    make([]float64, nnz),
		Cols:   m.cols,
	}
	scratch := make([]byte, maxPayload)
	var base int64
	for bi, meta := range m.blocks {
		buf := scratch[:meta.payloadBytes()]
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return nil, fmt.Errorf("sparse: ooc matrix used after Close")
		}
		_, err := m.f.ReadAt(buf, meta.off)
		m.mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("sparse: ooc block %d: %w", bi, err)
		}
		for k := 1; k <= meta.rows; k++ {
			out.RowPtr = append(out.RowPtr, base+rowPtr(buf, k))
		}
		meta.decodeEntries(buf, 0, out.ColIdx[base:base+meta.nnz], out.Val[base:base+meta.nnz])
		base += meta.nnz
	}
	return out, nil
}

// Close drops the resident cache and removes the spill file. The matrix
// must not be used afterwards.
func (m *OOCMatrix) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	m.resident = nil
	m.ll = nil
	m.spare = nil
	m.residentBytes = 0
	err := m.f.Close()
	if rmErr := os.Remove(m.path); err == nil {
		err = rmErr
	}
	return err
}
