// Shard-aware loading. A multi-node run wants each rank to parse only its
// slice of the input instead of rank 0 reading everything and scattering:
// LoadSharded either splits one libsvm file by byte range (every rank seeks
// independently, no coordination) or loads the pre-split multi-file layout
// WriteShards and the generators produce. Both conventions yield
// row blocks that concatenate, in rank order, to exactly the single-file
// parse — the compositional dataset fingerprint (internal/ckpt) depends on
// that.
package dataset

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"

	"repro/internal/sparse"
)

// Shard is one rank's slice of a dataset: rows [Lo, Lo+X.Rows()) of the
// file-order whole.
type Shard struct {
	X  *sparse.Matrix
	Y  []float64
	Lo int // global row index of the shard's first row (-1 when unknown)
}

// shardRange splits size bytes into nranks contiguous byte ranges and
// returns rank's [lo, hi). The boundaries are the byte analogue of the row
// partitioner core.BlockRange uses (q*n/p), so shard sizes differ by at
// most one byte.
func shardRange(size int64, rank, nranks int) (lo, hi int64) {
	if nranks <= 0 || rank < 0 || rank >= nranks {
		panic(fmt.Sprintf("dataset: shardRange(rank=%d, nranks=%d)", rank, nranks))
	}
	lo = int64(rank) * size / int64(nranks)
	hi = int64(rank+1) * size / int64(nranks)
	return lo, hi
}

// shardStart resolves the first line boundary at or after byte lo: a line
// is owned by the shard whose range contains its first byte. lo == 0 is
// always a line start; otherwise, if the previous byte terminates a line,
// lo itself starts one, and if not the line containing lo began in the
// previous shard, so ownership starts after the next '\n'.
func shardStart(f io.ReaderAt, lo int64, size int64) (int64, error) {
	if lo == 0 {
		return 0, nil
	}
	prev := make([]byte, 1)
	if _, err := f.ReadAt(prev, lo-1); err != nil {
		return 0, err
	}
	if prev[0] == '\n' {
		return lo, nil
	}
	buf := make([]byte, 64<<10)
	for off := lo; off < size; off += int64(len(buf)) {
		n, err := f.ReadAt(buf, off)
		for i := 0; i < n; i++ {
			if buf[i] == '\n' {
				return off + int64(i) + 1, nil
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
	}
	return size, nil // the partial line runs to EOF; a later shard owns nothing
}

// loadShard parses the lines of the libsvm file at path whose first byte
// falls inside rank's shardRange. Concatenating all ranks' shards in rank
// order reproduces ReadLibsvm on the whole file bit-for-bit; comment and
// blank lines are skipped as usual. The returned Shard's Lo is -1: global
// row indices cannot be known without parsing the preceding shards (the
// caller that loads all shards can assign them cumulatively).
func loadShard(path string, rank, nranks int) (Shard, error) {
	f, err := os.Open(path)
	if err != nil {
		return Shard{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return Shard{}, err
	}
	size := st.Size()
	lo, hi := shardRange(size, rank, nranks)
	start, err := shardStart(f, lo, size)
	if err != nil {
		return Shard{}, fmt.Errorf("libsvm: shard %d/%d: %w", rank, nranks, err)
	}
	// A line is owned iff its first byte precedes hi; hi-start <= 0 leaves
	// this rank no line at all.
	cr := newChunkReader(io.NewSectionReader(f, start, size-start), defaultChunkBytes)
	x, y, err := readMatrix(cr, hi-start, false)
	if err != nil {
		return Shard{}, fmt.Errorf("shard %d/%d (from byte %d): %w", rank, nranks, start, err)
	}
	return Shard{X: x, Y: y, Lo: -1}, nil
}

// ShardFileName names shard i of n for a dataset base path.
func ShardFileName(base string, i, n int) string {
	return fmt.Sprintf("%s.%03d-of-%03d", base, i, n)
}

// WriteShards writes (x, y) as n shard files next to base, splitting on the
// row boundaries i*rows/n (the same arithmetic core.BlockRange uses for
// rank partitions). Concatenating the files in order is byte-identical to
// SaveLibsvmFile(base). Returns the paths written.
func WriteShards(base string, x *sparse.Matrix, y []float64, n int) ([]string, error) {
	if n <= 0 {
		return nil, fmt.Errorf("libsvm: %d shards", n)
	}
	if x.Rows() != len(y) {
		return nil, fmt.Errorf("libsvm: %d rows but %d labels", x.Rows(), len(y))
	}
	paths := make([]string, 0, n)
	for i := 0; i < n; i++ {
		lo := i * x.Rows() / n
		hi := (i + 1) * x.Rows() / n
		blk, err := x.RowRangeView(lo, hi)
		if err != nil {
			return nil, err
		}
		path := ShardFileName(base, i, n)
		if err := SaveLibsvmFile(path, blk, y[lo:hi]); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// detectShards reports the shard count of a pre-split dataset at base, or 0
// when base is a plain single file. It is an error for the shard set to be
// incomplete (gaps betray a partial copy).
func detectShards(base string) (int, error) {
	if _, err := os.Stat(base); err == nil {
		return 0, nil
	}
	dir, name := ".", base
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		dir, name = base[:i], base[i+1:]
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var found []string
	n := 0
	for _, e := range entries {
		var i, total int
		if _, err := fmt.Sscanf(e.Name(), name+".%03d-of-%03d", &i, &total); err == nil &&
			total > 0 && e.Name() == ShardFileName(name, i, total) {
			found = append(found, e.Name())
			n = total
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("libsvm: %s: no such file and no shards", base)
	}
	sort.Strings(found)
	if len(found) != n {
		return 0, fmt.Errorf("libsvm: %s: %d of %d shard files present", base, len(found), n)
	}
	for i := range found {
		if found[i] != ShardFileName(name, i, n) {
			return 0, fmt.Errorf("libsvm: %s: shard file %s missing", base, ShardFileName(name, i, n))
		}
	}
	return n, nil
}

// LoadSharded loads a dataset as nranks shards, parsing them in parallel.
// When path names shard files written by WriteShards (path itself absent),
// their count must equal nranks and each file is one shard; otherwise the
// single file is byte-range split via loadShard. Either way the shards
// concatenate, in order, to the single-file parse, Lo indices are assigned
// cumulatively, and every shard's matrix is widened to the global column
// count. nranks == 0 means "however the file is sharded on disk" (1 for a
// plain file).
func LoadSharded(path string, nranks int) ([]Shard, error) {
	disk, err := detectShards(path)
	if err != nil {
		return nil, err
	}
	if nranks == 0 {
		if disk == 0 {
			nranks = 1
		} else {
			nranks = disk
		}
	}
	if disk != 0 && disk != nranks {
		return nil, fmt.Errorf("libsvm: %s has %d shard files, want %d", path, disk, nranks)
	}
	shards := make([]Shard, nranks)
	errs := make([]error, nranks)
	var wg sync.WaitGroup
	for r := 0; r < nranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if disk != 0 {
				x, y, err := LoadLibsvmFile(ShardFileName(path, r, disk))
				shards[r], errs[r] = Shard{X: x, Y: y, Lo: -1}, err
				return
			}
			shards[r], errs[r] = loadShard(path, r, nranks)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	lo, cols := 0, 0
	for i := range shards {
		shards[i].Lo = lo
		lo += shards[i].X.Rows()
		if shards[i].X.Cols > cols {
			cols = shards[i].X.Cols
		}
	}
	for i := range shards {
		shards[i].X.Cols = cols
	}
	return shards, nil
}

// ConcatShards splices shards (in order) into one in-memory dataset,
// bit-identical to loading the unsharded file, with exact preallocation.
func ConcatShards(shards []Shard) (*sparse.Matrix, []float64) {
	rows, cols := 0, 0
	var nnz int64
	for _, s := range shards {
		rows += s.X.Rows()
		nnz += int64(s.X.NNZ())
		cols = max(cols, s.X.Cols)
	}
	out := &sparse.Matrix{
		RowPtr: make([]int64, 1, rows+1),
		ColIdx: make([]int32, 0, nnz),
		Val:    make([]float64, 0, nnz),
		Cols:   cols,
	}
	var y []float64
	for _, s := range shards {
		base := int64(len(out.Val))
		for _, p := range s.X.RowPtr[1:] {
			out.RowPtr = append(out.RowPtr, base+p)
		}
		out.ColIdx = append(out.ColIdx, s.X.ColIdx...)
		out.Val = append(out.Val, s.X.Val...)
		y = append(y, s.Y...)
	}
	return out, y
}
