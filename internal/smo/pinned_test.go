package smo

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/dataset"
	"repro/internal/kernel"
)

// pinnedRun is one training's counters and the FNV-64a hash of its model
// file.
type pinnedRun struct {
	name                     string
	iterations               int64
	kernelEvals              uint64
	hits, misses, evictions  uint64
	shrinkEvents, reconstrns int
	modelHash                uint64
}

// pinnedRunTable holds blobs x0.15 runs recorded before the working pair's
// rows were filled in one fused pass, complete cached rows skipped their
// NaN scan and small gradient updates stayed on the calling goroutine.
// Budgets: "off" is CacheBytes -1, "1row" and "16rows" hold that many
// full rows, "default" is 0 (1 GiB, every row). "warm" runs start from
// the dual point a 60-iteration cold run reached.
var pinnedRunTable = []pinnedRun{
	{"second=false/warm=false/shrink=false/off", 1757, 1054200, 0, 3514, 0, 0, 0, 0xbe58545943cab01e},
	{"second=false/warm=false/shrink=false/1row", 1757, 1054200, 0, 3514, 3513, 0, 0, 0xbe58545943cab01e},
	{"second=false/warm=false/shrink=false/16rows", 1757, 42300, 3373, 141, 125, 0, 0, 0xbe58545943cab01e},
	{"second=false/warm=false/shrink=false/default", 1757, 22800, 3438, 76, 0, 0, 0, 0xbe58545943cab01e},
	{"second=false/warm=false/shrink=true/off", 5116, 409798, 0, 10232, 0, 203, 2, 0x78428bea04c75147},
	{"second=false/warm=false/shrink=true/1row", 5116, 409142, 17, 10215, 10214, 203, 2, 0x78428bea04c75147},
	{"second=false/warm=false/shrink=true/16rows", 5116, 56585, 10047, 185, 169, 203, 2, 0x78428bea04c75147},
	{"second=false/warm=false/shrink=true/default", 5116, 43197, 10150, 82, 0, 203, 2, 0x78428bea04c75147},
	{"second=false/warm=true/shrink=false/off", 1926, 1170000, 0, 3900, 0, 0, 0, 0x88dcfa3923fd60d7},
	{"second=false/warm=true/shrink=false/1row", 1926, 1170000, 0, 3900, 3899, 0, 0, 0x88dcfa3923fd60d7},
	{"second=false/warm=true/shrink=false/16rows", 1926, 37800, 3774, 126, 110, 0, 0, 0x88dcfa3923fd60d7},
	{"second=false/warm=true/shrink=false/default", 1926, 21600, 3828, 72, 0, 0, 0, 0x88dcfa3923fd60d7},
	{"second=false/warm=true/shrink=true/off", 1926, 323270, 0, 3900, 0, 78, 1, 0x88dcfa3923fd60d7},
	{"second=false/warm=true/shrink=true/1row", 1926, 323270, 0, 3900, 3899, 78, 1, 0x88dcfa3923fd60d7},
	{"second=false/warm=true/shrink=true/16rows", 1926, 38971, 3774, 126, 110, 78, 1, 0x88dcfa3923fd60d7},
	{"second=false/warm=true/shrink=true/default", 1926, 29931, 3828, 72, 0, 78, 1, 0x88dcfa3923fd60d7},
	{"second=true/warm=false/shrink=false/off", 216, 129900, 0, 432, 0, 0, 0, 0x2bc01429370a465b},
	{"second=true/warm=false/shrink=false/1row", 216, 120600, 31, 401, 400, 0, 0, 0x2bc01429370a465b},
	{"second=true/warm=false/shrink=false/16rows", 216, 41700, 294, 138, 122, 0, 0, 0x2bc01429370a465b},
	{"second=true/warm=false/shrink=false/default", 216, 31200, 329, 103, 0, 0, 0, 0x2bc01429370a465b},
	{"second=true/warm=false/shrink=true/off", 215, 73615, 0, 430, 0, 8, 1, 0x7d867a068c52250c},
	{"second=true/warm=false/shrink=true/1row", 215, 68728, 30, 400, 399, 8, 1, 0x7d867a068c52250c},
	{"second=true/warm=false/shrink=true/16rows", 215, 33872, 293, 137, 121, 8, 1, 0x7d867a068c52250c},
	{"second=true/warm=false/shrink=true/default", 215, 29274, 328, 102, 0, 8, 1, 0x7d867a068c52250c},
	{"second=true/warm=true/shrink=false/off", 174, 119100, 0, 396, 0, 0, 0, 0x4d33b4ae9a688c49},
	{"second=true/warm=true/shrink=false/1row", 174, 110700, 28, 368, 367, 0, 0, 0x4d33b4ae9a688c49},
	{"second=true/warm=true/shrink=false/16rows", 174, 51600, 225, 171, 155, 0, 0, 0x4d33b4ae9a688c49},
	{"second=true/warm=true/shrink=false/default", 174, 32400, 289, 107, 0, 0, 0, 0x4d33b4ae9a688c49},
	{"second=true/warm=true/shrink=true/off", 174, 82386, 0, 396, 0, 7, 1, 0x4d33b4ae9a688c49},
	{"second=true/warm=true/shrink=true/1row", 174, 77319, 28, 368, 367, 7, 1, 0x4d33b4ae9a688c49},
	{"second=true/warm=true/shrink=true/16rows", 174, 45040, 225, 171, 155, 7, 1, 0x4d33b4ae9a688c49},
	{"second=true/warm=true/shrink=true/default", 174, 33714, 289, 107, 0, 7, 1, 0x4d33b4ae9a688c49},
}

// TestPinnedRuns pins the iterate sequence, every kernel-evaluation and
// cache counter and the model bits of both selection rules, with and
// without shrinking (a short period, so shrinks, reconstructions and the
// unshrink before convergence all happen), across cache budgets that
// turn the cache off, hold one row, evict, and hold every row, cold and
// warm-started. How a row is filled and how the gradient update is
// scheduled are free to change; what the solver computes and counts is
// not.
func TestPinnedRuns(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.15)
	n := int64(ds.X.Rows())
	budgets := []struct {
		name  string
		bytes int64
	}{{"off", -1}, {"1row", 8 * n}, {"16rows", 8 * n * 16}, {"default", 0}}
	base := Config{Kernel: kernel.FromSigma2(ds.Sigma2), C: ds.C, Eps: 1e-3, Workers: 2}
	pre := base
	pre.MaxIter = 60
	start, err := Train(ds.X, ds.Y, pre)
	if err != nil {
		t.Fatal(err)
	}
	var got []pinnedRun
	for _, second := range []bool{false, true} {
		for _, warm := range []bool{false, true} {
			for _, shrink := range []bool{false, true} {
				for _, b := range budgets {
					cfg := base
					cfg.SecondOrder = second
					cfg.Shrinking = shrink
					cfg.ShrinkEvery = 25
					cfg.CacheBytes = b.bytes
					if warm {
						cfg.InitialAlpha = start.Alpha
					}
					name := fmt.Sprintf("second=%v/warm=%v/shrink=%v/%s", second, warm, shrink, b.name)
					res, err := Train(ds.X, ds.Y, cfg)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					var buf bytes.Buffer
					if err := res.Model.Write(&buf); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					h := fnv.New64a()
					h.Write(buf.Bytes())
					got = append(got, pinnedRun{
						name: name, iterations: res.Iterations, kernelEvals: res.KernelEvals,
						hits: res.CacheHits, misses: res.CacheMisses, evictions: res.CacheEvictions,
						shrinkEvents: res.ShrinkEvents, reconstrns: res.Reconstructions,
						modelHash: h.Sum64(),
					})
				}
			}
		}
	}
	if len(got) != len(pinnedRunTable) {
		t.Errorf("%d runs, %d pinned", len(got), len(pinnedRunTable))
	}
	for k, g := range got {
		if k < len(pinnedRunTable) && g == pinnedRunTable[k] {
			continue
		}
		t.Errorf("got {%q, %d, %d, %d, %d, %d, %d, %d, %#x}", g.name, g.iterations, g.kernelEvals,
			g.hits, g.misses, g.evictions, g.shrinkEvents, g.reconstrns, g.modelHash)
	}
}
