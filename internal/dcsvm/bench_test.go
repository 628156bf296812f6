package dcsvm

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/smo"
	"repro/internal/solver"
)

// The benchmarks compare a full exact solve against divide-and-conquer at
// increasing cluster counts on the same data; the dc variants should win
// wall-clock once Clusters >= 4. Run with:
//
//	go test -bench=. -benchtime=1x ./internal/dcsvm
func benchData(b *testing.B) *dataset.Dataset {
	b.Helper()
	return dataset.MustGenerate("blobs", 1)
}

func BenchmarkCoreFull(b *testing.B) {
	ds := benchData(b)
	cfg := core.Config{Kernel: testKernel(ds), C: ds.C}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.TrainParallel(ds.X, ds.Y, 1, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSMOFull(b *testing.B) {
	ds := benchData(b)
	cfg := smo.Config{Kernel: testKernel(ds), C: ds.C, Shrinking: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := smo.Train(ds.X, ds.Y, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkDC(b *testing.B, clusters int, mut func(*solver.Options)) {
	ds := benchData(b)
	opts := solver.Options{C: ds.C, Seed: 11, DC: solver.DCOptions{Clusters: clusters}}
	if mut != nil {
		mut(&opts)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Train(ds.X, ds.Y, testKernel(ds), opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDCClusters4(b *testing.B)  { benchmarkDC(b, 4, nil) }
func BenchmarkDCClusters8(b *testing.B)  { benchmarkDC(b, 8, nil) }
func BenchmarkDCClusters16(b *testing.B) { benchmarkDC(b, 16, nil) }
func BenchmarkDCEarlyStop8(b *testing.B) {
	benchmarkDC(b, 8, func(o *solver.Options) { o.DC.PolishMaxIter = 50 })
}
func BenchmarkDCTwoLevel8(b *testing.B) {
	benchmarkDC(b, 8, func(o *solver.Options) { o.DC.Levels = 2 })
}
