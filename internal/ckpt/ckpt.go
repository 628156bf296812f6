// Package ckpt provides crash-consistent checkpoint/restore for every
// training engine in the repository.
//
// The paper targets multi-hour SMO runs on thousands of cores, where a rank
// failure mid-training is the expected case, not the exception. A solver
// that loses its dual state (alpha), gradients and shrink bookkeeping on a
// crash must restart from zero; with the warm start every engine already
// takes (solver.Control.InitialAlpha, which solver.Options, core.Config and
// smo.Config embed), a periodically persisted alpha vector is enough to
// re-enter any engine and converge to the same eps-approximate optimum —
// a claim the correctness oracle (internal/oracle) can then verify instead
// of assume.
//
// The on-disk format is a single self-describing binary record:
//
//	magic (8)  | format version (u32) | CRC-32C of payload (u32) |
//	payload length (u64) | payload
//
// where the payload carries the solver kind, iteration counter, RNG seed,
// dataset fingerprint, and the alpha / gradient / active-set / shrink state.
// Every field is length-prefixed and bounds-checked on decode, so truncated
// or corrupt files are rejected (see FuzzDecodeState) rather than crashing
// the trainer.
//
// Durability follows the classic temp-file protocol: Save encodes to
// <dir>/checkpoint.ckpt.tmp, fsyncs, atomically renames the previous
// checkpoint to <dir>/checkpoint.ckpt.prev and the temp file onto
// <dir>/checkpoint.ckpt, then fsyncs the directory. One previous generation
// is always retained, so a checkpoint corrupted on disk (or a crash between
// the two renames) falls back to the prior snapshot in Load.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/crc64"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/sparse"
)

// Format constants. The magic distinguishes checkpoint files from every
// other artifact the repository writes; the version gates decoding so a
// future layout change cannot be misparsed as the current one.
const (
	Magic   = "SVMCKPT1"
	Version = 1
)

// Solver kinds recorded in checkpoints. They are informational provenance:
// the alpha vector is engine-agnostic, so any engine can resume from any
// checkpoint whose dataset fingerprint matches.
const (
	SolverCore  = "core"
	SolverSMO   = "smo"
	SolverDCSVM = "dcsvm"
	SolverTasks = "tasks"
)

// headerSize is magic(8) + version(4) + crc(4) + payload length(8).
const headerSize = 8 + 4 + 4 + 8

// maxSolverLen bounds the solver-kind string on decode.
const maxSolverLen = 64

var crcTable = crc32.MakeTable(crc32.Castagnoli)
var fpTable = crc64.MakeTable(crc64.ECMA)

// ErrCorrupt wraps every decode failure, so callers can distinguish a
// damaged checkpoint (fall back to the previous generation) from an I/O
// error.
var ErrCorrupt = errors.New("ckpt: corrupt checkpoint")

// State is one solver snapshot. Alpha is mandatory and global (one entry
// per training sample, in dataset row order, regardless of how many ranks
// produced it); Gamma and Active are optional diagnostics that make a
// checkpoint self-contained for forensics — resume rebuilds gradients from
// Alpha, so their absence never blocks recovery.
type State struct {
	Solver      string // engine that wrote the snapshot (SolverCore, ...)
	Iteration   int64  // solver iteration (or dcsvm progress counter)
	Seed        int64  // RNG seed of the run, for reproducing it
	Fingerprint uint64 // dataset content hash (Fingerprint)
	N           int    // global training-sample count

	Alpha  []float64 // dual variables, len N
	Gamma  []float64 // gradients gamma_i, len N or empty
	Active []bool    // active-set membership, len N or empty

	// Shrink bookkeeping at snapshot time (diagnostic; resume re-enters
	// through warm start with fresh shrink state).
	ShrinkCountdown int64
	Phase           int32 // core multi-reconstruction phase (1 or 2)
	ShrinkEvents    int32
	Reconstructions int32
}

// rowFingerprint hashes one row of the dataset: its (file-order) index, its
// label, and its sparse content.
func rowFingerprint(row int, r sparse.Row, label float64) uint64 {
	h := crc64.New(fpTable)
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(row))
	put(math.Float64bits(label))
	put(uint64(len(r.Idx)))
	for k, c := range r.Idx {
		put(uint64(uint32(c)))
		put(math.Float64bits(r.Val[k]))
	}
	return h.Sum64()
}

// Fingerprint returns the content hash of a training set: row content,
// labels, and shape. Two datasets fingerprint equally exactly when their
// stored rows are identical, which is the resume-safety contract: a
// checkpoint's alpha vector is only meaningful against the exact rows it
// was trained on. Each row hashes on its own, bound to its index and label;
// the rows' wrapping sum is then sealed with the shape. The index keeps the
// sum order-sensitive: moving a row changes its hash, so permuted or
// shifted datasets do not collide.
func Fingerprint(x *sparse.Matrix, y []float64) uint64 {
	var sum uint64
	for i := 0; i < x.Rows(); i++ {
		sum += rowFingerprint(i, x.RowView(i), y[i])
	}
	h := crc64.New(fpTable)
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(x.Rows()))
	put(uint64(x.Cols))
	put(sum)
	return h.Sum64()
}

// BindModel mixes a base-model content hash into a dataset fingerprint.
// Incremental updates (internal/tasks) checkpoint under the bound
// fingerprint, so a resume is rejected unless BOTH the appended dataset and
// the warm-start base model are the ones the checkpoint was written against
// — the alpha vector is only meaningful relative to both.
func BindModel(datasetFP, modelHash uint64) uint64 {
	h := crc64.New(fpTable)
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], datasetFP)
	binary.LittleEndian.PutUint64(b[8:], modelHash)
	h.Write(b[:])
	return h.Sum64()
}

// Matches validates a loaded state against the dataset a resume is about to
// train, rejecting cross-dataset restores before any solver work happens.
func (s *State) Matches(x *sparse.Matrix, y []float64) error {
	if s.N != x.Rows() {
		return fmt.Errorf("ckpt: checkpoint holds %d samples, dataset has %d", s.N, x.Rows())
	}
	if len(y) != x.Rows() {
		return fmt.Errorf("ckpt: %d labels for %d rows", len(y), x.Rows())
	}
	if fp := Fingerprint(x, y); fp != s.Fingerprint {
		return fmt.Errorf("ckpt: dataset fingerprint %016x does not match checkpoint fingerprint %016x — resumed data differs from the data the checkpoint was trained on", fp, s.Fingerprint)
	}
	return nil
}

// Encode serializes the state into the canonical binary format. The
// encoding is deterministic: equal states produce identical bytes, and
// Decode(Encode(s)) round-trips exactly.
func Encode(s *State) []byte {
	payload := make([]byte, 0, 64+8*len(s.Alpha)+8*len(s.Gamma)+len(s.Active))
	var b [8]byte
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		payload = append(payload, b[:8]...)
	}
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(b[:4], v)
		payload = append(payload, b[:4]...)
	}
	payload = append(payload, byte(len(s.Solver)))
	payload = append(payload, s.Solver...)
	put64(uint64(s.Iteration))
	put64(uint64(s.Seed))
	put64(s.Fingerprint)
	put64(uint64(s.N))
	put64(uint64(s.ShrinkCountdown))
	put32(uint32(s.Phase))
	put32(uint32(s.ShrinkEvents))
	put32(uint32(s.Reconstructions))
	put64(uint64(len(s.Alpha)))
	for _, v := range s.Alpha {
		put64(math.Float64bits(v))
	}
	put64(uint64(len(s.Gamma)))
	for _, v := range s.Gamma {
		put64(math.Float64bits(v))
	}
	put64(uint64(len(s.Active)))
	for _, v := range s.Active {
		if v {
			payload = append(payload, 1)
		} else {
			payload = append(payload, 0)
		}
	}

	out := make([]byte, 0, headerSize+len(payload))
	out = append(out, Magic...)
	binary.LittleEndian.PutUint32(b[:4], Version)
	out = append(out, b[:4]...)
	binary.LittleEndian.PutUint32(b[:4], crc32.Checksum(payload, crcTable))
	out = append(out, b[:4]...)
	binary.LittleEndian.PutUint64(b[:], uint64(len(payload)))
	out = append(out, b[:8]...)
	return append(out, payload...)
}

// decoder is a bounds-checked little-endian reader over the payload.
type decoder struct {
	data []byte
	off  int
	err  error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
}

func (d *decoder) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.data) {
		d.fail("field of %d bytes overruns payload (%d of %d consumed)", n, d.off, len(d.data))
		return nil
	}
	out := d.data[d.off : d.off+n]
	d.off += n
	return out
}

func (d *decoder) u64() uint64 {
	b := d.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) u32() uint32 {
	b := d.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// sliceLen reads a length prefix and verifies the declared payload fits in
// the remaining bytes before any allocation happens, so a forged length
// cannot trigger a huge allocation.
func (d *decoder) sliceLen(elemBytes int, name string) int {
	n := d.u64()
	if d.err != nil {
		return 0
	}
	remaining := len(d.data) - d.off
	if n > uint64(remaining/elemBytes)+1 || int(n)*elemBytes > remaining {
		d.fail("%s length %d exceeds remaining %d bytes", name, n, remaining)
		return 0
	}
	return int(n)
}

// Decode parses a checkpoint record, verifying magic, version, length and
// CRC before interpreting any field, then validating every structural
// invariant (consistent lengths, finite floats, 0/1 active bytes). Any
// failure returns an error wrapping ErrCorrupt.
func Decode(data []byte) (*State, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrCorrupt, len(data), headerSize)
	}
	if string(data[:8]) != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != Version {
		return nil, fmt.Errorf("%w: format version %d, this build reads version %d", ErrCorrupt, v, Version)
	}
	wantCRC := binary.LittleEndian.Uint32(data[12:16])
	plen := binary.LittleEndian.Uint64(data[16:24])
	payload := data[headerSize:]
	if plen != uint64(len(payload)) {
		return nil, fmt.Errorf("%w: declared payload %d bytes, file carries %d", ErrCorrupt, plen, len(payload))
	}
	if got := crc32.Checksum(payload, crcTable); got != wantCRC {
		return nil, fmt.Errorf("%w: CRC mismatch (stored %08x, computed %08x)", ErrCorrupt, wantCRC, got)
	}

	d := &decoder{data: payload}
	st := &State{}
	solverLen := 0
	if b := d.bytes(1); b != nil {
		solverLen = int(b[0])
	}
	if solverLen > maxSolverLen {
		d.fail("solver name of %d bytes exceeds the %d-byte cap", solverLen, maxSolverLen)
	}
	st.Solver = string(d.bytes(solverLen))
	st.Iteration = int64(d.u64())
	st.Seed = int64(d.u64())
	st.Fingerprint = d.u64()
	n := d.u64()
	st.ShrinkCountdown = int64(d.u64())
	st.Phase = int32(d.u32())
	st.ShrinkEvents = int32(d.u32())
	st.Reconstructions = int32(d.u32())
	if d.err == nil && (n == 0 || n > uint64(math.MaxInt32)) {
		d.fail("sample count %d outside (0, 2^31]", n)
	}
	st.N = int(n)

	if alen := d.sliceLen(8, "alpha"); d.err == nil {
		if alen != st.N {
			d.fail("alpha holds %d entries for %d samples", alen, st.N)
		}
		st.Alpha = make([]float64, alen)
		for i := range st.Alpha {
			v := math.Float64frombits(d.u64())
			if math.IsNaN(v) || math.IsInf(v, 0) {
				d.fail("alpha[%d] is not finite", i)
				break
			}
			st.Alpha[i] = v
		}
	}
	if glen := d.sliceLen(8, "gamma"); d.err == nil {
		if glen != 0 && glen != st.N {
			d.fail("gamma holds %d entries for %d samples", glen, st.N)
		}
		if glen > 0 {
			st.Gamma = make([]float64, glen)
		}
		for i := range st.Gamma {
			v := math.Float64frombits(d.u64())
			if math.IsNaN(v) || math.IsInf(v, 0) {
				d.fail("gamma[%d] is not finite", i)
				break
			}
			st.Gamma[i] = v
		}
	}
	if blen := d.sliceLen(1, "active"); d.err == nil {
		if blen != 0 && blen != st.N {
			d.fail("active holds %d entries for %d samples", blen, st.N)
		}
		if blen > 0 {
			st.Active = make([]bool, blen)
		}
		for i := range st.Active {
			b := d.bytes(1)
			if b == nil {
				break
			}
			switch b[0] {
			case 0:
				st.Active[i] = false
			case 1:
				st.Active[i] = true
			default:
				d.fail("active[%d] byte is %d, want 0 or 1", i, b[0])
			}
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(payload) {
		return nil, fmt.Errorf("%w: %d trailing bytes after the last field", ErrCorrupt, len(payload)-d.off)
	}
	return st, nil
}

// File names within a checkpoint directory.
const (
	latestName = "checkpoint.ckpt"
	prevName   = "checkpoint.ckpt.prev"
	tmpName    = "checkpoint.ckpt.tmp"
)

// Writer persists checkpoint generations into one directory. It is safe for
// concurrent use (dcsvm's cluster goroutines share one writer); saves are
// serialized under a mutex so generations never interleave.
type Writer struct {
	mu          sync.Mutex
	dir         string
	saves       int
	skipped     int
	minInterval time.Duration
	lastSave    time.Time
}

// NewWriter creates (if needed) the checkpoint directory and returns a
// writer over it.
func NewWriter(dir string) (*Writer, error) {
	if dir == "" {
		return nil, errors.New("ckpt: empty checkpoint directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	return &Writer{dir: dir}, nil
}

// Saves returns how many generations this writer has written (stats/bench).
func (w *Writer) Saves() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.saves
}

// Skipped returns how many Save calls the debounce suppressed.
func (w *Writer) Skipped() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.skipped
}

// SetMinInterval debounces saves: a Save arriving sooner than d after the
// previous successful save is skipped (counted by Skipped, returns nil).
// Iteration-count triggers fire at wildly different rates across engines
// and problem sizes; the debounce caps the fsync overhead at roughly
// (save cost)/d of wall-clock regardless, at the price of a resume point
// at most d older. Zero (the default) disables the debounce.
func (w *Writer) SetMinInterval(d time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.minInterval = d
}

// Save writes one checkpoint generation crash-consistently: encode to a
// temp file, fsync it, rotate the current generation to .prev, atomically
// rename the temp file into place, and fsync the directory. At every
// instant the directory holds at least one complete, CRC-valid generation.
func (w *Writer) Save(st *State) error {
	if st == nil {
		return errors.New("ckpt: nil state")
	}
	if len(st.Alpha) != st.N {
		return fmt.Errorf("ckpt: state holds %d alphas for %d samples", len(st.Alpha), st.N)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.minInterval > 0 && !w.lastSave.IsZero() && time.Since(w.lastSave) < w.minInterval {
		w.skipped++
		return nil
	}

	data := Encode(st)
	tmp := filepath.Join(w.dir, tmpName)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("ckpt: fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}

	latest := filepath.Join(w.dir, latestName)
	if _, err := os.Stat(latest); err == nil {
		if err := os.Rename(latest, filepath.Join(w.dir, prevName)); err != nil {
			return fmt.Errorf("ckpt: rotate previous generation: %w", err)
		}
	}
	if err := os.Rename(tmp, latest); err != nil {
		return fmt.Errorf("ckpt: install checkpoint: %w", err)
	}
	syncDir(w.dir)
	w.saves++
	w.lastSave = time.Now()
	return nil
}

// syncDir fsyncs a directory so the renames are durable; best-effort on
// platforms/filesystems where directories cannot be synced.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// Load reads the newest decodable generation from a checkpoint directory:
// the latest file, or — when it is missing, truncated, or fails any decode
// check — the retained previous generation. The returned path names the
// file actually used.
func Load(dir string) (*State, string, error) {
	var errs []error
	for _, name := range []string{latestName, prevName} {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		st, err := Decode(data)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", name, err))
			continue
		}
		return st, path, nil
	}
	return nil, "", fmt.Errorf("ckpt: no usable checkpoint in %s: %w", dir, errors.Join(errs...))
}
