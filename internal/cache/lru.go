// Package cache provides the least-recently-used kernel-row cache shared by
// the libsvm-enhanced baseline and the ranks of the distributed solver.
//
// The paper's proposed solver avoids a kernel cache completely (Section
// III-A2): a complete kernel matrix costs Theta(N^2) space and, for a fixed
// cache size, the hit probability falls as the dataset grows. libsvm,
// however, relies on its cache heavily, and the paper gives it "a compute
// node's entire memory" to set up the best execution scenario for the
// baseline. This package reproduces that component: a byte-budgeted LRU
// over kernel rows, mirroring libsvm's Cache class.
//
// The distributed solver uses the same type on each rank, with rows that
// span only the rank's own block of n/p samples (core.Config.CacheBytes):
// the rows a rank can hold grow with p, which is the case Glasmachers
// makes for "more RAM" (arXiv 2207.01016). Besides its working pair, a
// rank reads the rows during gradient reconstruction, through Peek, which
// neither counts nor reorders, so the counters and the eviction order are
// those of the working-pair lookups alone.
//
// Both solvers reach their rows through Rows, which wraps a RowCache and
// the kernel.RowPool that fills it and is the one owner of how a row is
// completed over the active samples.
//
// Every row of a cache has the same width and keys are small integers, so
// the cache is a slab of rows with an index-to-slot table and an intrusive
// doubly linked LRU list over the slots. Row storage is allocated in
// chunks as rows are first admitted, never beyond the budget, and once the
// budget is full an admission reuses the evicted row's storage: a full
// cache allocates nothing.
package cache

import "math"

// chunkBytes is the size of one slab allocation: the slab grows by chunks
// of this many bytes of rows (at least one row, at most the budget).
const chunkBytes = 1 << 20

// none marks an absent key, slot or list neighbour.
const none = -1

// slot is one row's key and its neighbours in the LRU list.
type slot struct{ key, prev, next int32 }

// RowCache is an LRU cache of fixed-width kernel rows keyed by an index in
// [0, keys). It is not safe for concurrent use: each solver (or rank) owns
// one and looks rows up from its coordinating goroutine only.
type RowCache struct {
	width    int
	capacity int         // rows the budget holds, at most keys
	slotOf   []int32     // key -> slot, none when the key is not cached
	slots    []slot      // one per row the budget holds
	rows     [][]float64 // slot -> row storage, allocated slots only
	used     int         // slots holding a row: rows[:used]
	// head and tail are the most and least recently used slots.
	head, tail int32

	hits, misses, evictions uint64
}

// New returns a RowCache for rows of width entries keyed by [0, keys),
// holding as many rows as budgetBytes allows. A budget below one row
// (in particular <= 0) disables caching: every Get misses and Put returns
// nil.
func New(budgetBytes int64, keys, width int) *RowCache {
	c := &RowCache{width: width, head: none, tail: none}
	rowBytes := 8 * int64(max(width, 1))
	if budgetBytes >= rowBytes {
		c.capacity = int(min(budgetBytes/rowBytes, int64(keys)))
	}
	if c.capacity > 0 {
		c.slotOf = make([]int32, keys)
		for i := range c.slotOf {
			c.slotOf[i] = none
		}
		c.slots = make([]slot, c.capacity)
		c.rows = make([][]float64, 0, c.capacity)
	}
	return c
}

// Get returns the cached row for key and marks it most recently used.
// The returned slice is owned by the cache; it stays valid until the key
// is evicted.
func (c *RowCache) Get(key int) ([]float64, bool) {
	if c.capacity == 0 || c.slotOf[key] == none {
		c.misses++
		return nil, false
	}
	c.hits++
	s := c.slotOf[key]
	c.touch(s)
	return c.rows[s], true
}

// Peek returns the cached row for key like Get, but counts neither a hit
// nor a miss and leaves the LRU order alone: a solver that reads rows it
// already holds for other work (gradient reconstruction) does not disturb
// the eviction order or the counters of its working-pair lookups.
func (c *RowCache) Peek(key int) ([]float64, bool) {
	if c.capacity == 0 || c.slotOf[key] == none {
		return nil, false
	}
	return c.rows[c.slotOf[key]], true
}

// Put makes key the most recently used row and returns its storage. A key
// that is not cached takes a fresh row while the budget has room, and
// otherwise the least recently used row's storage, evicting that row. A
// newly admitted row holds NaN in every entry, the solvers' marker for a
// kernel value not computed yet; the caller fills it. Put returns nil
// when the budget holds no row.
//
// The row returned last by Get or Put stays intact through one more Put,
// so a solver can hold both rows of its working pair: a full cache of two
// or more rows evicts another row, and a cache of one row gives the new
// key fresh storage.
func (c *RowCache) Put(key int) []float64 {
	if c.capacity == 0 {
		return nil
	}
	if s := c.slotOf[key]; s != none {
		c.touch(s)
		return c.rows[s]
	}
	var s int32
	if c.used < c.capacity {
		s = c.grow()
	} else {
		s = c.tail
		c.unlink(s)
		c.slotOf[c.slots[s].key] = none
		c.evictions++
		if c.capacity == 1 {
			// The evicted row is the one returned last, which the caller
			// may still be reading (the other half of a working pair).
			c.rows[s] = make([]float64, c.width)
		}
	}
	c.slots[s].key = int32(key)
	c.slotOf[key] = s
	c.pushFront(s)
	row := c.rows[s]
	for i := range row {
		row[i] = math.NaN()
	}
	return row
}

// grow takes the next unused slot, allocating a chunk of row storage
// when every allocated slot is in use.
func (c *RowCache) grow() int32 {
	if c.used == len(c.rows) {
		n := min(max(chunkBytes/(8*max(c.width, 1)), 1), c.capacity-c.used)
		slab := make([]float64, n*c.width)
		for k := 0; k < n; k++ {
			c.rows = append(c.rows, slab[k*c.width:(k+1)*c.width:(k+1)*c.width])
		}
	}
	c.used++
	return int32(c.used - 1)
}

// touch moves a used slot to the front of the LRU list.
func (c *RowCache) touch(s int32) {
	if c.head != s {
		c.unlink(s)
		c.pushFront(s)
	}
}

func (c *RowCache) pushFront(s int32) {
	c.slots[s].prev, c.slots[s].next = none, c.head
	if c.head != none {
		c.slots[c.head].prev = s
	}
	c.head = s
	if c.tail == none {
		c.tail = s
	}
}

func (c *RowCache) unlink(s int32) {
	p, n := c.slots[s].prev, c.slots[s].next
	if p != none {
		c.slots[p].next = n
	} else {
		c.head = n
	}
	if n != none {
		c.slots[n].prev = p
	} else {
		c.tail = p
	}
}

// Stats returns hit/miss/eviction counters.
func (c *RowCache) Stats() (hits, misses, evictions uint64) {
	return c.hits, c.misses, c.evictions
}
