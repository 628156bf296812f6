package smo

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/solver"
)

// codrnaCfg is svmperf's smo configuration on cod-rna x0.007 (416 rows),
// where every row fits the default cache.
func codrnaCfg(ds *dataset.Dataset) Config {
	return FromOptions(kernel.FromSigma2(ds.Sigma2), solver.Options{C: ds.C, Eps: 1e-3, Workers: 2})
}

// TestSteadyStateIterationAllocs pins the allocations of one first-order
// iteration on cod-rna x0.007 at zero, with every row cached and with the
// cache off (two transient rows serve every lookup). The count is the
// difference between two iteration caps, which cancels set-up, model
// assembly and the rows the cache admits early on; shrinking is off, so
// no shrink check or reconstruction falls in between. With the cache off
// every row is filled afresh, and the row pool fans a batch of 416
// targets out across its workers, which allocates; that run uses one
// worker, so the count is the solver's own.
func TestSteadyStateIterationAllocs(t *testing.T) {
	ds := dataset.MustGenerate("codrna", 0.007)
	for _, tc := range []struct {
		name       string
		cacheBytes int64
		workers    int
	}{{"cached", 0, 2}, {"off", -1, 1}} {
		allocs := func(iters int64) float64 {
			cfg := codrnaCfg(ds)
			cfg.Shrinking = false
			cfg.CacheBytes, cfg.Workers = tc.cacheBytes, tc.workers
			cfg.MaxIter = iters
			return testing.AllocsPerRun(5, func() {
				if res, err := Train(ds.X, ds.Y, cfg); err != nil || res.Iterations != iters {
					t.Fatalf("%s, MaxIter %d: err %v", tc.name, iters, err)
				}
			})
		}
		lo, hi := int64(1000), int64(2000)
		// The first AllocsPerRun of the process counts a one-time runtime
		// allocation; a discarded run takes it, so the test holds alone.
		allocs(hi)
		perIter := (allocs(hi) - allocs(lo)) / float64(hi-lo)
		t.Logf("cache %s: %.3f allocations per iteration", tc.name, perIter)
		if perIter > 0 {
			t.Errorf("cache %s: %.3f allocations per iteration, want 0", tc.name, perIter)
		}
	}
}

var sinkResult *Result

// BenchmarkTrainMnist38Cache is one smo training call of svmperf's
// kernel-cache-mnist38 workload: 1500 mnist38 rows in the seed-1
// permutation, a 1.5 MiB cache that holds about 130 of their rows, and
// two workers, so row fills, LRU hits and evictions do the work.
func BenchmarkTrainMnist38Cache(b *testing.B) {
	ds := dataset.MustGenerate("mnist38", 0.025)
	perm := rand.New(rand.NewSource(1)).Perm(ds.X.Rows())
	x, err := ds.X.SelectRows(perm)
	if err != nil {
		b.Fatal(err)
	}
	y := make([]float64, len(perm))
	for k, i := range perm {
		y[k] = ds.Y[i]
	}
	cfg := FromOptions(kernel.FromSigma2(ds.Sigma2), solver.Options{C: ds.C, Eps: 1e-3, Workers: 2, CacheBytes: 3 << 19})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sinkResult, err = Train(x, y, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(sinkResult.Iterations), "ns/iter")
}

// BenchmarkTrainCodrna is one smo training call of svmperf's paper-codrna
// reference: 416 cod-rna rows, all of them cached, two workers.
func BenchmarkTrainCodrna(b *testing.B) {
	ds := dataset.MustGenerate("codrna", 0.007)
	cfg := codrnaCfg(ds)
	b.ReportAllocs()
	b.ResetTimer()
	var err error
	for i := 0; i < b.N; i++ {
		if sinkResult, err = Train(ds.X, ds.Y, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(sinkResult.Iterations), "ns/iter")
}
