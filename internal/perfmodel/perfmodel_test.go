package perfmodel

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/mpi"
	"repro/internal/trace"
)

func testMachine() Machine {
	return Machine{Net: mpi.NetModel{Alpha: 1.5e-6, Beta: 1.0 / 6.8e9}, Lambda: 1e-7, RowBytes: RowBytes(30)}
}

// flatTrace builds a trace with constant active count and optional recon.
func flatTrace(n int, iters int64) *trace.Trace {
	return &trace.Trace{
		N: n, Iterations: iters, AvgNNZ: 30, Converged: true, SVCount: n / 10,
		Segments: []trace.Segment{{FromIter: 0, Active: n}},
	}
}

func TestLogHelpers(t *testing.T) {
	cases := []struct{ p, floor int }{
		{1, 0}, {2, 1}, {3, 1}, {4, 2}, {5, 2}, {8, 3}, {9, 3}, {4096, 12},
	}
	for _, c := range cases {
		if got := log2Floor(c.p); got != c.floor {
			t.Errorf("log2Floor(%d) = %d, want %d", c.p, got, c.floor)
		}
	}
}

func TestCollectiveCostsScaleLogarithmically(t *testing.T) {
	net := mpi.NetModel{Alpha: 1e-6, Beta: 1e-9}
	if AllreduceCost(net, 1, 8) != 0 || RingCost(net, 1, 100) != 0 {
		t.Fatal("p=1 collectives should be free")
	}
	a8, a64 := AllreduceCost(net, 8, 1000), AllreduceCost(net, 64, 1000)
	if math.Abs(a64/a8-2.0) > 1e-9 {
		t.Fatalf("allreduce p64/p8 = %v, want 2 (log ratio)", a64/a8)
	}
	a16 := AllreduceCost(net, 16, 8)
	a17 := AllreduceCost(net, 17, 8)
	if a17 <= a16 {
		t.Fatal("non-power-of-two allreduce should cost extra rounds")
	}
	r := RingCost(net, 10, 1e6)
	want := 10*net.Alpha + 1e6*net.Beta
	if math.Abs(r-want) > 1e-15 {
		t.Fatalf("ring = %v, want %v", r, want)
	}
}

func TestEvaluateComputeDominatedScaling(t *testing.T) {
	// With a large active set and modest iteration count, doubling p
	// should nearly halve compute time.
	tr := flatTrace(100000, 1000)
	m := testMachine()
	b1, err := Evaluate(tr, 1, m)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := Evaluate(tr, 2, m)
	ratio := b1.Compute / b2.Compute
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("compute ratio p1/p2 = %v, want ~2", ratio)
	}
	if b1.ReduceComm != 0 {
		t.Fatal("p=1 should have no communication")
	}
}

// TestEvaluateChargesOneSelectionAllreduce pins the per-iteration traffic
// the model charges to what core sends: one Allreduce whose operand holds
// both violators with their samples, plus one carrying a single sample in
// second-order mode, and nothing else on a trace without shrink checks.
func TestEvaluateChargesOneSelectionAllreduce(t *testing.T) {
	const iters = 1000
	m := testMachine()
	half := m.RowBytes + 32
	for _, p := range []int{2, 3, 64} {
		tr := flatTrace(10000, iters)
		b, err := Evaluate(tr, p, m)
		if err != nil {
			t.Fatal(err)
		}
		want := iters * AllreduceCost(m.Net, p, 32+2*half)
		if math.Abs(b.ReduceComm-want) > 1e-12*want {
			t.Errorf("p=%d: ReduceComm %v, want %v", p, b.ReduceComm, want)
		}
		tr.WSS = "second-order"
		b, err = Evaluate(tr, p, m)
		if err != nil {
			t.Fatal(err)
		}
		want += iters * AllreduceCost(m.Net, p, 16+half)
		if math.Abs(b.ReduceComm-want) > 1e-12*want {
			t.Errorf("p=%d second-order: ReduceComm %v, want %v", p, b.ReduceComm, want)
		}
	}
}

func TestEvaluateEfficiencyRollsOff(t *testing.T) {
	// The paper's observation: with shrinking the active set decays, the
	// communication share grows with p, and parallel efficiency drops —
	// but on large datasets speedup keeps improving out to 4096 processes.
	// Use a HIGGS-scale trace (2.6M samples, 34M iterations).
	tr := &trace.Trace{
		N: 2_600_000, Iterations: 34_000_000, AvgNNZ: 28, SVCount: 300_000,
		Segments: []trace.Segment{
			{FromIter: 0, Active: 2_600_000},
			{FromIter: 2_000_000, Active: 800_000},
			{FromIter: 10_000_000, Active: 350_000},
		},
	}
	m := testMachine()
	var prevTotal, prevEff float64
	var prevComm float64 = -1
	for i, p := range []int{64, 256, 1024, 4096} {
		b, err := Evaluate(tr, p, m)
		if err != nil {
			t.Fatal(err)
		}
		total := b.Total()
		if i > 0 {
			if total >= prevTotal {
				t.Fatalf("no speedup at p=%d (total %v >= %v)", p, total, prevTotal)
			}
			eff := prevTotal / total / 4 // ideal would be 1
			if eff >= prevEff && prevEff > 0 {
				t.Fatalf("efficiency should decay: %v then %v", prevEff, eff)
			}
			prevEff = eff
		} else {
			prevEff = 1
		}
		if cf := (b.ReduceComm + b.ReconComm) / total; cf <= prevComm {
			t.Fatalf("communication fraction should grow with p: %v then %v", prevComm, cf)
		} else {
			prevComm = cf
		}
		prevTotal = total
	}
}

func TestReconFractionDecreasesWithScale(t *testing.T) {
	// Figure 8: the ratio of reconstruction time to total decreases with
	// increasing process count because reconstruction is O(N^2/p) against
	// the iterative part's larger aggregate, and at large p the iterative
	// part's fixed communication dominates.
	// URL-scale trace: 2.3M samples with heavy shrinking.
	tr := &trace.Trace{
		N: 2_300_000, Iterations: 20_000_000, AvgNNZ: 60, SVCount: 120_000,
		Segments: []trace.Segment{
			{FromIter: 0, Active: 2_300_000},
			{FromIter: 500_000, Active: 500_000},
		},
		Recons: []trace.ReconEvent{{Iter: 15_000_000, Shrunk: 1_800_000, SVs: 120_000}},
	}
	m := testMachine()
	var prev float64 = math.Inf(1)
	for _, p := range []int{64, 256, 1024, 4096} {
		b, err := Evaluate(tr, p, m)
		if err != nil {
			t.Fatal(err)
		}
		f := b.ReconFraction()
		if f <= 0 || f >= 1 {
			t.Fatalf("p=%d: recon fraction %v out of (0,1)", p, f)
		}
		if f > prev {
			t.Fatalf("recon fraction grew with scale: %v after %v", f, prev)
		}
		prev = f
	}
}

func TestEvaluateErrors(t *testing.T) {
	if _, err := Evaluate(nil, 4, testMachine()); err == nil {
		t.Fatal("nil trace accepted")
	}
	if _, err := Evaluate(flatTrace(10, 5), 0, testMachine()); err == nil {
		t.Fatal("p=0 accepted")
	}
	if _, err := Evaluate(&trace.Trace{}, 4, testMachine()); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestSweepAndPowersOfTwo(t *testing.T) {
	ps := PowersOfTwo(16, 256)
	want := []int{16, 32, 64, 128, 256}
	if len(ps) != len(want) {
		t.Fatalf("PowersOfTwo = %v", ps)
	}
	for i := range want {
		if ps[i] != want[i] {
			t.Fatalf("PowersOfTwo = %v", ps)
		}
	}
	for _, p := range ps {
		if _, err := Evaluate(flatTrace(10000, 100), p, testMachine()); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// TestModelMatchesExecutedVirtualTime cross-checks the analytic model
// against the mpi runtime's virtual clocks on a real (small) training run:
// same lambda, same network constants, so the totals should agree within a
// modest factor (the runtime schedule overlaps communication with compute,
// the analytic model adds them).
func TestModelMatchesExecutedVirtualTime(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.2)
	m := Machine{Net: mpi.NetModel{Alpha: 1e-5, Beta: 1e-8}, Lambda: 1e-6, RowBytes: RowBytes(ds.X.AvgRowNNZ())}
	cfg := core.Config{
		Kernel: kernel.FromSigma2(ds.Sigma2), C: ds.C, Eps: 1e-3,
		Heuristic: core.Multi5pc, RecordTrace: true, Lambda: m.Lambda,
	}
	const p = 4
	_, st, executed, err := core.TrainParallelTimed(ds.X, ds.Y, p, cfg, m.Net)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Evaluate(st.Trace, p, m)
	if err != nil {
		t.Fatal(err)
	}
	modeled := b.Total()
	if modeled <= 0 || executed <= 0 {
		t.Fatalf("non-positive times: model %v, executed %v", modeled, executed)
	}
	ratio := modeled / executed
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("model/executed = %v (model %v, executed %v); want within [0.4, 2.5]",
			ratio, modeled, executed)
	}
}

func TestCalibrate(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.1)
	m := Calibrate(kernel.FromSigma2(ds.Sigma2), ds.X, 5*time.Millisecond)
	if m.Lambda <= 0 || m.Lambda > 1e-3 {
		t.Fatalf("implausible lambda %v", m.Lambda)
	}
	if m.Net.Alpha != mpi.FDR().Alpha {
		t.Fatal("Calibrate should use FDR constants")
	}
	if m.RowBytes < 16 {
		t.Fatalf("RowBytes = %v", m.RowBytes)
	}
}
