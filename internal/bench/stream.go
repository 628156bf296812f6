package bench

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// RunStream measures the out-of-core streaming data path against the
// in-memory load on the sparse-text datasets: wall-clock for load+train,
// peak live heap during each phase, and spill-cache behaviour, with a
// bit-parity check that the out-of-core model equals the in-memory one.
// The resident budget is o.MemBudget, or a quarter of the spilled payload
// when unset — small enough that training must churn the LRU.
func RunStream(o Options) (*Report, error) {
	o = o.withDefaults()
	start := time.Now()
	rep := &Report{
		ID:     "stream",
		Title:  "Out-of-core streaming load vs in-memory (measured wall-clock, peak heap)",
		Header: []string{"dataset", "path", "budget", "load+train", "peak-heap", "spill", "loads/hits/evict", "w-parity"},
	}

	dir, err := os.MkdirTemp("", "svm-stream-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	for _, name := range []string{"rcv1", "realsim"} {
		ds, scale, err := loadDataset(o, name)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, name+".libsvm")
		if err := dataset.SaveLibsvmFile(path, ds.X, ds.Y); err != nil {
			return nil, err
		}
		opts := solver.Options{C: ds.C, Eps: o.Eps, Seed: 11}
		fit := func(x sparse.RowMatrix, y []float64) (solver.Result, error) {
			prob := solver.Problem{X: x, Y: y, Kernel: kernel.Params{Type: kernel.Linear}}
			return solver.Train(context.Background(), "linear", prob, opts)
		}

		// In-memory reference: plain load, plain train.
		runtime.GC()
		peak := dataset.SampleLiveHeap()
		t0 := time.Now()
		x, y, err := dataset.LoadLibsvmFile(path)
		if err != nil {
			return nil, err
		}
		memRes, err := fit(x, y)
		if err != nil {
			return nil, fmt.Errorf("linear on %s: %w", name, err)
		}
		memTime := time.Since(t0)
		memPeak := peak()
		rep.Rows = append(rep.Rows, []string{
			name, "in-memory", "-", memTime.Round(time.Millisecond).String(),
			dataset.FormatByteSize(int64(memPeak)), "-", "-", "-",
		})

		// Out-of-core: chunked parse spilled to disk, budgeted LRU.
		budget := o.MemBudget
		if budget <= 0 {
			budget = int64(x.ByteSize()) / 4
		}
		x, y = nil, nil
		runtime.GC()
		peak = dataset.SampleLiveHeap()
		t0 = time.Now()
		ooc, oy, err := dataset.OpenOOC(path, dataset.OOCOptions{SpillDir: dir, MemBudget: budget})
		if err != nil {
			return nil, err
		}
		oocRes, err := fit(ooc, oy)
		if err != nil {
			ooc.Close()
			return nil, fmt.Errorf("linear/ooc on %s: %w", name, err)
		}
		oocTime := time.Since(t0)
		oocPeak := peak()
		loads, hits, evictions := ooc.Stats()
		spill := ooc.ByteSize()
		ooc.Close()

		parity := "bit-identical"
		if !sameBits(memRes.Model.W, oocRes.Model.W) {
			parity = "DIFFERS"
		}
		rep.Rows = append(rep.Rows, []string{
			name, "out-of-core", dataset.FormatByteSize(budget),
			oocTime.Round(time.Millisecond).String(),
			dataset.FormatByteSize(int64(oocPeak)),
			dataset.FormatByteSize(spill),
			fmt.Sprintf("%d/%d/%d", loads, hits, evictions), parity,
		})
		o.logf("%s at scale %.4f: in-memory %v (peak %s) vs out-of-core %v (peak %s, budget %s)",
			name, scale, memTime.Round(time.Millisecond), dataset.FormatByteSize(int64(memPeak)),
			oocTime.Round(time.Millisecond), dataset.FormatByteSize(int64(oocPeak)),
			dataset.FormatByteSize(budget))
		if parity != "bit-identical" {
			return nil, fmt.Errorf("stream: out-of-core model differs from in-memory on %s", name)
		}
	}

	rep.Notes = append(rep.Notes,
		"out-of-core spills parsed CSR blocks to a temp file and trains through a byte-budgeted LRU of resident blocks",
		"training is deterministic in (data, seed), so the out-of-core model must be bit-identical to the in-memory one (checked)",
		"peak-heap is the sampled live-heap maximum across load+train; the in-memory row includes the whole CSR payload, the out-of-core row tracks the budget")
	rep.Took = time.Since(start)
	return rep, nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
