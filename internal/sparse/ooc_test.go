package sparse

import (
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
)

// randomCSR builds a random sparse matrix with the given shape.
func randomCSR(t testing.TB, rows, cols int, density float64, seed int64) *Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				b.Add(j, rng.NormFloat64())
			}
		}
		b.EndRow()
	}
	m := b.Build()
	m.Cols = cols
	return m
}

// spill writes m into an OOCMatrix in blocks of blockRows under the budget.
func spill(t testing.TB, m *Matrix, blockRows int, budget int64) *OOCMatrix {
	t.Helper()
	w, err := NewOOCWriter(t.TempDir(), budget)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < m.Rows(); lo += blockRows {
		hi := min(lo+blockRows, m.Rows())
		blk, err := m.RowRangeView(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AppendBlock(blk); err != nil {
			t.Fatal(err)
		}
	}
	ooc, err := w.Finish(m.Cols)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ooc.Close() })
	return ooc
}

func rowsEqual(a, b Row) bool {
	if len(a.Idx) != len(b.Idx) {
		return false
	}
	for k := range a.Idx {
		if a.Idx[k] != b.Idx[k] || math.Float64bits(a.Val[k]) != math.Float64bits(b.Val[k]) {
			return false
		}
	}
	return true
}

// TestOOCRowParity checks every row of the spilled matrix against the
// in-memory original across block sizes and budgets, including budgets far
// smaller than the payload (forcing evictions on every pass).
func TestOOCRowParity(t *testing.T) {
	m := randomCSR(t, 237, 40, 0.15, 1)
	for _, blockRows := range []int{1, 7, 64, 1000} {
		for _, budget := range []int64{0, 4 << 10, 1 << 30} {
			ooc := spill(t, m, blockRows, budget)
			if ooc.Rows() != m.Rows() || ooc.Dim() != m.Cols {
				t.Fatalf("blockRows=%d: shape %dx%d, want %dx%d",
					blockRows, ooc.Rows(), ooc.Dim(), m.Rows(), m.Cols)
			}
			// Two passes: cold, then again so the LRU is exercised with and
			// without residency.
			for pass := 0; pass < 2; pass++ {
				for i := 0; i < m.Rows(); i++ {
					if !rowsEqual(m.RowView(i), ooc.RowView(i)) {
						t.Fatalf("blockRows=%d budget=%d pass=%d: row %d differs",
							blockRows, budget, pass, i)
					}
				}
			}
			loads, hits, _ := ooc.Stats()
			if loads == 0 {
				t.Fatalf("blockRows=%d budget=%d: no block loads recorded", blockRows, budget)
			}
			if budget == 1<<30 && hits == 0 && ooc.Blocks() > 0 {
				t.Fatalf("blockRows=%d: unlimited budget recorded no hits", blockRows)
			}
		}
	}
}

// TestOOCBudgetBoundsResidency asserts the eviction invariant: the resident
// set never exceeds max(budget, largest single block).
func TestOOCBudgetBoundsResidency(t *testing.T) {
	m := randomCSR(t, 400, 60, 0.2, 2)
	const blockRows = 32
	var maxBlock int64
	for _, p := range blockPayloads(m, blockRows) {
		maxBlock = max(maxBlock, p)
	}
	budget := 3 * maxBlock / 2
	ooc := spill(t, m, blockRows, budget)
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 5000; k++ {
		i := rng.Intn(m.Rows())
		ooc.RowView(i)
		if r := ooc.residentBytes; r > budget && r > maxBlock {
			t.Fatalf("resident %d exceeds budget %d and max block %d", r, budget, maxBlock)
		}
	}
	if _, _, ev := ooc.Stats(); ev == 0 {
		t.Fatal("random access under a tight budget recorded no evictions")
	}
}

// TestOOCMaterialize checks the spliced full matrix is bit-identical to the
// original, including structural validation.
func TestOOCMaterialize(t *testing.T) {
	m := randomCSR(t, 123, 31, 0.25, 4)
	ooc := spill(t, m, 17, 1<<20)
	got, err := ooc.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if got.Rows() != m.Rows() || got.Cols != m.Cols || got.NNZ() != m.NNZ() {
		t.Fatalf("shape/nnz mismatch: %dx%d/%d vs %dx%d/%d",
			got.Rows(), got.Cols, got.NNZ(), m.Rows(), m.Cols, m.NNZ())
	}
	for i := 0; i < m.Rows(); i++ {
		if !rowsEqual(m.RowView(i), got.RowView(i)) {
			t.Fatalf("row %d differs after materialize", i)
		}
	}
}

// TestOOCSquaredNorms checks the generic norm pass matches the in-memory
// method bit-for-bit (the linear solver's q_ii depends on it).
func TestOOCSquaredNorms(t *testing.T) {
	m := randomCSR(t, 90, 25, 0.3, 5)
	ooc := spill(t, m, 11, 0)
	want := m.SquaredNorms()
	got := SquaredNormsOf(ooc)
	if len(got) != len(want) {
		t.Fatalf("len %d != %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("norm %d: %v != %v", i, got[i], want[i])
		}
	}
	if gm := SquaredNormsOf(m); math.Float64bits(gm[7]) != math.Float64bits(want[7]) {
		t.Fatal("SquaredNormsOf(Matrix) diverges from SquaredNorms")
	}
}

// TestOOCConcurrentReads hammers RowView from many goroutines, under a
// budget of a few blocks, under one smaller than a single block, and under
// one that holds the whole payload (rows alias decoded blocks). Each
// goroutine keeps every 10th row it reads and re-checks them all after the
// loop; run with -race this proves a buffer reused for a later load never
// backs a row already handed out.
func TestOOCConcurrentReads(t *testing.T) {
	m := randomCSR(t, 256, 30, 0.2, 6)
	for _, budget := range []int64{2 << 10, 64, 1 << 30} {
		ooc := spill(t, m, 16, budget)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				var keptIdx []int
				var kept []Row
				for k := 0; k < 2000; k++ {
					i := rng.Intn(m.Rows())
					r := ooc.RowView(i)
					if !rowsEqual(m.RowView(i), r) {
						t.Errorf("budget %d, goroutine %d: row %d differs", budget, seed, i)
						return
					}
					if k%10 == 0 {
						keptIdx = append(keptIdx, i)
						kept = append(kept, r)
					}
				}
				for k, i := range keptIdx {
					if !rowsEqual(m.RowView(i), kept[k]) {
						t.Errorf("budget %d, goroutine %d: kept row %d changed after later loads", budget, seed, i)
						return
					}
				}
			}(int64(g))
		}
		wg.Wait()
		if _, _, ev := ooc.Stats(); ev == 0 && budget < ooc.ByteSize() {
			t.Fatalf("budget %d: no evictions, so no buffer was reused", budget)
		}
	}
}

// TestOOCCounters pins the cache counters and residency for a fixed seeded
// access sequence. The values were recorded before evicted buffers were
// reused: the LRU must make exactly the same decisions, whatever it does
// with the memory.
func TestOOCCounters(t *testing.T) {
	m := randomCSR(t, 300, 50, 0.2, 8)
	rng := rand.New(rand.NewSource(9))
	for _, tc := range []struct {
		budget                 int64
		loads, hits, evictions uint64
		resident               int64
	}{
		{budget: 9888, loads: 2366, hits: 634, evictions: 2363, resident: 8064}, // a quarter of the payload
		{budget: 1, loads: 2779, hits: 221, evictions: 2778, resident: 2520},    // under one block
		{budget: 39552, loads: 15, hits: 2985, evictions: 0, resident: 39552},   // the whole payload
	} {
		ooc := spill(t, m, 20, tc.budget)
		if got := ooc.ByteSize(); got != 39552 {
			t.Fatalf("payload %d bytes, want 39552: the fixture changed", got)
		}
		for k := 0; k < 3000; k++ {
			ooc.RowView(rng.Intn(m.Rows()))
		}
		loads, hits, evictions := ooc.Stats()
		if loads != tc.loads || hits != tc.hits || evictions != tc.evictions {
			t.Errorf("budget %d: loads/hits/evictions %d/%d/%d, want %d/%d/%d",
				tc.budget, loads, hits, evictions, tc.loads, tc.hits, tc.evictions)
		}
		if r := ooc.residentBytes; r != tc.resident {
			t.Errorf("budget %d: resident %d bytes, want %d", tc.budget, r, tc.resident)
		}
	}
}

// TestOOCSteadyStateAllocs asserts that once the cache is warm a block load
// allocates nothing but the rows it hands out: over at least 1000 misses,
// the bytes allocated per miss stay under a tenth of the smallest block's
// payload.
func TestOOCSteadyStateAllocs(t *testing.T) {
	m := randomCSR(t, 1024, 40, 0.2, 10)
	const blockRows = 64
	minBlock, total := int64(math.MaxInt64), int64(0)
	for _, p := range blockPayloads(m, blockRows) {
		minBlock, total = min(minBlock, p), total+p
	}
	ooc := spill(t, m, blockRows, total/4)
	rng := rand.New(rand.NewSource(11))
	read := func(n int) {
		for k := 0; k < n; k++ {
			ooc.RowView(rng.Intn(m.Rows()))
		}
	}
	read(2000) // warm: every resident buffer has been through a few loads
	loads0, _, _ := ooc.Stats()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	read(4000)
	runtime.ReadMemStats(&after)
	loads1, _, _ := ooc.Stats()
	misses := loads1 - loads0
	if misses < 1000 {
		t.Fatalf("only %d misses; the access pattern no longer churns the cache", misses)
	}
	perMiss := (after.TotalAlloc - before.TotalAlloc) / misses
	if perMiss >= uint64(minBlock/10) {
		t.Fatalf("%d bytes allocated per miss over %d misses, want < %d (a tenth of the smallest block)",
			perMiss, misses, minBlock/10)
	}
	t.Logf("%d misses, %d bytes allocated per miss, smallest block %d bytes", misses, perMiss, minBlock)
}

// TestOOCClose checks Close removes the spill file and further use panics.
func TestOOCClose(t *testing.T) {
	m := randomCSR(t, 20, 10, 0.5, 7)
	w, err := NewOOCWriter(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBlock(m); err != nil {
		t.Fatal(err)
	}
	ooc, err := w.Finish(m.Cols)
	if err != nil {
		t.Fatal(err)
	}
	path := ooc.path
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("spill file missing before Close: %v", err)
	}
	if err := ooc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ooc.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("spill file still present after Close: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("RowView after Close did not panic")
		}
	}()
	ooc.RowView(0)
}

// TestOOCEmpty checks a writer with no rows fails cleanly.
func TestOOCEmpty(t *testing.T) {
	w, err := NewOOCWriter(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Finish(0); err == nil {
		t.Fatal("Finish with no rows succeeded")
	}
}

// TestOOCFullyResidentAllocs asserts that under a budget holding the whole
// payload, a read of a block already loaded allocates nothing: rows alias
// the block decoded on its first load, as they alias an in-memory Matrix.
func TestOOCFullyResidentAllocs(t *testing.T) {
	m := randomCSR(t, 300, 50, 0.2, 8)
	ooc := spill(t, m, 20, 1<<30)
	for i := 0; i < m.Rows(); i++ {
		ooc.RowView(i)
	}
	rng := rand.New(rand.NewSource(14))
	if a := testing.AllocsPerRun(1000, func() { ooc.RowView(rng.Intn(m.Rows())) }); a != 0 {
		t.Fatalf("%v allocations per warm RowView, want 0", a)
	}
	for i := 0; i < m.Rows(); i++ {
		if !rowsEqual(m.RowView(i), ooc.RowView(i)) {
			t.Fatalf("row %d differs", i)
		}
	}
	if loads, _, evictions := ooc.Stats(); loads != uint64(ooc.Blocks()) || evictions != 0 {
		t.Fatalf("loads/evictions %d/%d, want %d/0", loads, evictions, ooc.Blocks())
	}
}

// blockPayloads returns the encoded size of each blockRows-row block of m.
func blockPayloads(m *Matrix, blockRows int) []int64 {
	var out []int64
	for lo := 0; lo < m.Rows(); lo += blockRows {
		hi := min(lo+blockRows, m.Rows())
		out = append(out, 8*int64(hi-lo+1)+12*(m.RowPtr[hi]-m.RowPtr[lo]))
	}
	return out
}

// BenchmarkOOCRowView reads random rows through a budget of a quarter of the
// payload, where most reads of a cold block load it from the spill file and
// every row is copied out, and through one holding the whole payload, where
// every read after the first pass is a hit that aliases a decoded block.
func BenchmarkOOCRowView(b *testing.B) {
	m := randomCSR(b, 2048, 200, 0.05, 12)
	const blockRows = 64
	var total int64
	for _, p := range blockPayloads(m, blockRows) {
		total += p
	}
	for _, bc := range []struct {
		name   string
		budget int64
	}{{"quarter", total / 4}, {"resident", total}} {
		b.Run(bc.name, func(b *testing.B) {
			ooc := spill(b, m, blockRows, bc.budget)
			rng := rand.New(rand.NewSource(13))
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				ooc.RowView(rng.Intn(m.Rows()))
			}
		})
	}
}
