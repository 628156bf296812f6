package cache

import (
	"container/list"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// put admits key and fills its row with fill.
func put(c *RowCache, key int, fill float64) {
	r := c.Put(key)
	for i := range r {
		r[i] = fill
	}
}

func TestGetMiss(t *testing.T) {
	c := New(1024, 10, 4)
	if _, ok := c.Get(7); ok {
		t.Fatal("Get on empty cache hit")
	}
	_, misses, _ := c.Stats()
	if misses != 1 {
		t.Fatalf("misses = %d, want 1", misses)
	}
}

func TestPutGet(t *testing.T) {
	c := New(1024, 10, 10)
	put(c, 3, 1.5)
	got, ok := c.Get(3)
	if !ok || len(got) != 10 || got[0] != 1.5 {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	if c.used != 1 {
		t.Fatalf("%d rows cached", c.used)
	}
}

func TestEvictionLRUOrder(t *testing.T) {
	c := New(240, 10, 10) // room for 3 rows of 10
	put(c, 1, 1)
	put(c, 2, 2)
	put(c, 3, 3)
	// Touch 1 so 2 becomes LRU.
	if _, ok := c.Get(1); !ok {
		t.Fatal("1 missing")
	}
	put(c, 4, 4)
	if _, ok := c.Get(2); ok {
		t.Fatal("2 should have been evicted")
	}
	for k, want := range map[int]float64{1: 1, 3: 3, 4: 4} {
		if got, ok := c.Get(k); !ok || got[0] != want {
			t.Fatalf("%d should be cached with %v, got %v, %v", k, want, got, ok)
		}
	}
	_, _, ev := c.Stats()
	if ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

// TestPutCachedKeyKeepsRow: a Put of a key that is cached returns its row
// as it is, makes it most recently used, and neither grows nor evicts.
func TestPutCachedKeyKeepsRow(t *testing.T) {
	c := New(160, 10, 10) // room for 2 rows
	put(c, 1, 1)
	put(c, 2, 2)
	if r := c.Put(1); r[0] != 1 {
		t.Fatalf("Put of a cached key returned %v", r)
	}
	put(c, 3, 3) // evicts 2, the least recently used
	if _, ok := c.Get(2); ok {
		t.Fatal("2 should have been evicted")
	}
	if got, ok := c.Get(1); !ok || got[0] != 1 {
		t.Fatalf("1 lost: %v, %v", got, ok)
	}
	if _, _, ev := c.Stats(); c.used != 2 || ev != 1 {
		t.Fatalf("%d rows cached, %d evictions", c.used, ev)
	}
}

// TestEvictionReusesStorage: once the budget is full, an admission takes
// the evicted row's storage, reset to NaN.
func TestEvictionReusesStorage(t *testing.T) {
	c := New(80, 10, 5) // room for 2 rows
	a := c.Put(1)
	a[0] = 1
	c.Put(2)
	b := c.Put(3)
	if &b[0] != &a[0] {
		t.Fatal("admission into a full cache did not reuse the evicted row")
	}
	for _, v := range b {
		if !math.IsNaN(v) {
			t.Fatalf("admitted row %v keeps the evicted row's values", b)
		}
	}
}

// TestOneRowCacheKeepsPair: in a cache of one row, admitting a key leaves
// the row returned before it intact.
func TestOneRowCacheKeepsPair(t *testing.T) {
	c := New(40, 10, 5)
	put(c, 1, 1)
	a, _ := c.Get(1)
	put(c, 2, 2)
	if a[0] != 1 {
		t.Fatal("admission overwrote the row returned before it")
	}
	if _, _, ev := c.Stats(); c.used != 1 || ev != 1 {
		t.Fatalf("%d rows cached, %d evictions", c.used, ev)
	}
}

func TestOversizeRowNotCached(t *testing.T) {
	c := New(100, 10, 100) // 800-byte rows > budget
	if r := c.Put(1); r != nil {
		t.Fatal("oversize row admitted")
	}
	if _, ok := c.Get(1); ok {
		t.Fatal("oversize row cached")
	}
	if c.used != 0 {
		t.Fatalf("%d rows cached", c.used)
	}
}

func TestZeroBudgetDisables(t *testing.T) {
	c := New(0, 10, 4)
	if r := c.Put(1); r != nil {
		t.Fatal("zero-budget cache admitted a row")
	}
	if _, ok := c.Get(1); ok {
		t.Fatal("zero-budget cache stored a row")
	}
}

// Property: against a reference LRU (container/list and a map), the cache
// holds the same keys, returns exactly what was put most recently for a
// key, counts the same hits, misses and evictions, and never holds more
// rows than the budget.
func TestBudgetInvariantQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const keys = 20
		width := 1 + rng.Intn(20)
		budget := int64(rng.Intn(8 * width * 12))
		capacity := int(budget) / (8 * width)
		c := New(budget, keys, width)
		ll := list.New()
		ref := map[int]*list.Element{}
		shadow := map[int]float64{}
		var hits, misses, evictions uint64
		for op := 0; op < 300; op++ {
			key := rng.Intn(keys)
			el, cached := ref[key]
			if cached {
				ll.MoveToFront(el)
			}
			if rng.Float64() < 0.6 {
				fill := rng.Float64()
				put(c, key, fill)
				shadow[key] = fill
				if !cached && capacity > 0 {
					ref[key] = ll.PushFront(key)
					if ll.Len() > capacity {
						delete(ref, ll.Remove(ll.Back()).(int))
						evictions++
					}
				}
			} else {
				got, ok := c.Get(key)
				if ok != cached {
					return false
				}
				if ok {
					hits++
					if len(got) != width || got[0] != shadow[key] {
						return false // stale value
					}
				} else {
					misses++
				}
			}
			if c.used != ll.Len() || c.used > capacity {
				return false
			}
		}
		h, m, e := c.Stats()
		return h == hits && m == misses && e == evictions
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCacheGetHit(b *testing.B) {
	c := New(1<<20, 10, 1000)
	put(c, 1, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Get(1)
	}
}

// BenchmarkRowCacheChurn is a miss-and-evict loop over a full cache: every
// lookup misses and every admission evicts, reusing the evicted row's
// storage, so it must report 0 allocs/op.
func BenchmarkRowCacheChurn(b *testing.B) {
	const keys, width, rows = 1024, 256, 64
	c := New(rows*8*width, keys, width)
	for k := 0; k < rows; k++ {
		c.Put(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := rows + i%(keys-rows)
		if _, ok := c.Get(key); !ok {
			c.Put(key)[0] = 1
		}
	}
}
