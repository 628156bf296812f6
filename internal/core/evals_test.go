package core

import (
	"testing"

	"repro/internal/dataset"
)

// TestCachelessEvalCount pins the executed kernel-evaluation count with
// the cache off to what perfmodel charges from the trace: every iteration
// 3 + 2·active (the pair's three values and its two rows over the actives)
// and every reconstruction shrunk·SVs. Each rank evaluates the pair's
// values itself, so p ranks add 3(p−1) per iteration; second-order
// selection adds the diagonal (N) and evaluates K(x_up, x_up) a second
// time, 4p − 3 per iteration in all. Reading the row cache may only lower
// the count when the cache is on, so with it off the count must stay
// exact, for every Table II heuristic, both selection rules and p = 1..3.
func TestCachelessEvalCount(t *testing.T) {
	ds := dataset.MustGenerate("codrna", 0.007)
	n := int64(ds.X.Rows())
	for _, h := range Table2() {
		for _, second := range []bool{false, true} {
			for p := 1; p <= 3; p++ {
				cfg := blobCfg(ds, h)
				cfg.SecondOrder, cfg.CacheBytes, cfg.RecordTrace = second, -1, true
				_, st, err := TrainParallel(ds.X, ds.Y, p, cfg)
				if err != nil {
					t.Fatal(err)
				}
				tr := st.Trace
				var modeled int64
				tr.EachSegment(func(active int, iters int64) { modeled += iters * (3 + 2*int64(active)) })
				for _, r := range tr.Recons {
					modeled += int64(r.Shrunk) * int64(r.SVs)
				}
				want := modeled + 3*st.Iterations*int64(p-1)
				if second {
					want = modeled + n + st.Iterations*int64(4*p-3)
				}
				if got := int64(st.KernelEvals); got != want {
					t.Errorf("%s second=%v p=%d: %d kernel evaluations, want %d (modeled %d, %d iterations, %d reconstructions)",
						h.Name, second, p, got, want, modeled, st.Iterations, len(tr.Recons))
				}
			}
		}
	}
}

// TestDefaultBudgetEvalsPinned pins the kernel evaluations of cod-rna
// ×0.007 (Multi5pc, first order) at the default cache budget, where every
// row fits. The iterate sequence and the active sets are the same for
// every p, and each rank caches its block of every pair row, so the rows,
// and the reconstructions that read them on every ring step, cost the
// same in all at any p. What p ranks add is each rank's own K(x_up,
// x_low) every iteration and its own self-kernel of every distinct pair
// sample: evals(p) − evals(1) = (p−1)·(iterations + distinct pair
// samples). A ring step that recomputed a block instead of reading the
// cache would break the equality.
func TestDefaultBudgetEvalsPinned(t *testing.T) {
	ds := dataset.MustGenerate("codrna", 0.007)
	pinned := map[int]uint64{1: 46_355, 2: 51_857, 3: 57_359}
	var base *Stats
	for p := 1; p <= 3; p++ {
		_, st, err := TrainParallel(ds.X, ds.Y, p, blobCfg(ds, Multi5pc))
		if err != nil {
			t.Fatal(err)
		}
		if st.CacheEvictions != 0 {
			t.Fatalf("p=%d: %d evictions at the default budget", p, st.CacheEvictions)
		}
		if st.KernelEvals != pinned[p] {
			t.Errorf("p=%d: %d kernel evaluations, pinned %d", p, st.KernelEvals, pinned[p])
		}
		if p == 1 {
			base = st
			continue
		}
		// With no eviction, each distinct pair sample misses once.
		distinct := base.CacheMisses
		if want := base.KernelEvals + uint64(p-1)*(uint64(base.Iterations)+distinct); st.KernelEvals != want {
			t.Errorf("p=%d: %d kernel evaluations, want %d = %d + %d·(%d iterations + %d distinct pair samples)",
				p, st.KernelEvals, want, base.KernelEvals, p-1, base.Iterations, distinct)
		}
	}
}
