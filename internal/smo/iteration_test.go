package smo

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/solver"
)

// gradientState is a state holding only what updateGradients reads and
// writes: n active samples with random gradients, and two random rows.
func gradientState(n, workers int) (s *state, rowU, rowL []float64) {
	rng := rand.New(rand.NewSource(int64(n)))
	s = &state{cfg: Config{Workers: workers}, gamma: make([]float64, n), active: make([]bool, n)}
	rowU, rowL = make([]float64, n), make([]float64, n)
	for i := range s.gamma {
		s.gamma[i] = rng.NormFloat64()
		s.active[i] = i%7 != 3 // some shrunk samples, which keep their gamma
		rowU[i], rowL[i] = rng.Float64(), rng.Float64()
	}
	return s, rowU, rowL
}

// TestGradientFanOutMatchesChunk: above minParallelGradient the update
// fans out across the workers, and every gradient must equal, bit for
// bit, what one gradientChunk over the whole range gives.
func TestGradientFanOutMatchesChunk(t *testing.T) {
	n := minParallelGradient + 1001
	for _, w := range []int{2, 3, 4} {
		par, rowU, rowL := gradientState(n, w)
		seq, _, _ := gradientState(n, 1)
		for _, step := range []float64{0.37, -1.25} {
			par.updateGradients(step, rowU, rowL)
			seq.gradientChunk(step, rowU, rowL, 0, n)
		}
		for i := range seq.gamma {
			if math.Float64bits(par.gamma[i]) != math.Float64bits(seq.gamma[i]) {
				t.Fatalf("workers %d: gamma[%d] = %v, one chunk gives %v", w, i, par.gamma[i], seq.gamma[i])
			}
		}
	}
}

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

// BenchmarkGradientUpdate times one Eq. 2 gradient update over n samples
// on the calling goroutine (serial) and split across GOMAXPROCS
// goroutines (fanout); the crossing sets minParallelGradient.
func BenchmarkGradientUpdate(b *testing.B) {
	w := runtime.GOMAXPROCS(0)
	for _, n := range []int{1 << 10, 1 << 12, 1 << 13, 1 << 14, 1 << 15, 1 << 16, 1 << 18} {
		s, rowU, rowL := gradientState(n, w)
		b.Run(fmt.Sprintf("n=%d/serial", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.gradientChunk(1e-9, rowU, rowL, 0, n)
			}
		})
		b.Run(fmt.Sprintf("n=%d/fanout", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.gradientFanOut(w, 1e-9, rowU, rowL)
			}
		})
	}
}
