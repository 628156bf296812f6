package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/mpi"
	"repro/internal/smo"
	"repro/internal/solver"
	"repro/internal/sparse"
)

func blobCfg(ds *dataset.Dataset, h Heuristic) Config {
	return Config{
		Kernel:    kernel.FromSigma2(ds.Sigma2),
		C:         ds.C,
		Eps:       1e-3,
		Heuristic: h,
	}
}

func TestOriginalConvergesAndClassifies(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.2)
	m, st, err := TrainParallel(ds.X, ds.Y, 3, blobCfg(ds, Original))
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatal("not converged")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	mt, err := m.Evaluate(ds.TestX, ds.TestY)
	if err != nil {
		t.Fatal(err)
	}
	if mt.Accuracy < 90 {
		t.Fatalf("test accuracy = %v%%", mt.Accuracy)
	}
	if st.ShrinkEvents != 0 || st.Reconstructions != 0 {
		t.Fatalf("Original performed shrinking: %+v", st)
	}
}

// TestIterateSequenceIndependentOfP is the determinism property the whole
// trace-driven performance model rests on: the solver computes the same
// iterate sequence (iterations, SVs, threshold, shrink/reconstruction
// schedule) for every process count.
func TestIterateSequenceIndependentOfP(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.15)
	for _, h := range []Heuristic{Original, Multi5pc, Single500} {
		var ref *Stats
		var refBeta float64
		var refSVs int
		for _, p := range []int{1, 2, 3, 5, 8} {
			cfg := blobCfg(ds, h)
			cfg.RecordTrace = true
			m, st, err := TrainParallel(ds.X, ds.Y, p, cfg)
			if err != nil {
				t.Fatalf("%s p=%d: %v", h.Name, p, err)
			}
			if ref == nil {
				ref, refBeta, refSVs = st, m.Beta, m.NumSV()
				continue
			}
			if st.Iterations != ref.Iterations {
				t.Fatalf("%s p=%d: iterations %d != %d", h.Name, p, st.Iterations, ref.Iterations)
			}
			if m.NumSV() != refSVs {
				t.Fatalf("%s p=%d: SVs %d != %d", h.Name, p, m.NumSV(), refSVs)
			}
			if st.ShrinkEvents != ref.ShrinkEvents || st.Reconstructions != ref.Reconstructions {
				t.Fatalf("%s p=%d: schedule differs: %+v vs %+v", h.Name, p, st, ref)
			}
			if math.Abs(m.Beta-refBeta) > 1e-9 {
				t.Fatalf("%s p=%d: beta %v != %v", h.Name, p, m.Beta, refBeta)
			}
			if len(st.Trace.Segments) != len(ref.Trace.Segments) {
				t.Fatalf("%s p=%d: trace segments differ", h.Name, p)
			}
			for i := range st.Trace.Segments {
				if st.Trace.Segments[i] != ref.Trace.Segments[i] {
					t.Fatalf("%s p=%d: segment %d: %+v vs %+v",
						h.Name, p, i, st.Trace.Segments[i], ref.Trace.Segments[i])
				}
			}
		}
	}
}

// TestMatchesBaselineSolver: the distributed Original algorithm and the
// sequential baseline implement the same optimization, so their objectives
// and accuracies must agree (iteration counts may differ slightly because
// the baseline may shrink; disable that).
func TestMatchesBaselineSolver(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.2)
	coreM, coreSt, err := TrainParallel(ds.X, ds.Y, 4, blobCfg(ds, Original))
	if err != nil {
		t.Fatal(err)
	}
	base, err := smo.Train(ds.X, ds.Y, smo.Config{
		Kernel: kernel.FromSigma2(ds.Sigma2), C: ds.C, Eps: 1e-3, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if coreSt.Iterations != base.Iterations {
		t.Fatalf("iterations: core %d vs baseline %d", coreSt.Iterations, base.Iterations)
	}
	if math.Abs(coreSt.Objective-base.Objective) > 1e-9*(1+math.Abs(base.Objective)) {
		t.Fatalf("objective: core %v vs baseline %v", coreSt.Objective, base.Objective)
	}
	if math.Abs(coreM.Beta-base.Model.Beta) > 1e-9 {
		t.Fatalf("beta: core %v vs baseline %v", coreM.Beta, base.Model.Beta)
	}
	if coreM.NumSV() != base.Model.NumSV() {
		t.Fatalf("SVs: core %d vs baseline %d", coreM.NumSV(), base.Model.NumSV())
	}
}

// TestShrinkingMaintainsAccuracy is contribution 2 of the paper: every
// heuristic, including the aggressive ones, must reach the same solution
// as the no-shrinking algorithm thanks to gradient reconstruction.
func TestShrinkingMaintainsAccuracy(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.25)
	_, refSt, err := TrainParallel(ds.X, ds.Y, 2, blobCfg(ds, Original))
	if err != nil {
		t.Fatal(err)
	}
	refM, _, err := TrainParallel(ds.X, ds.Y, 2, blobCfg(ds, Original))
	if err != nil {
		t.Fatal(err)
	}
	refAcc, _ := refM.Evaluate(ds.TestX, ds.TestY)
	for _, h := range Table2()[1:] {
		h := h
		t.Run(h.Name, func(t *testing.T) {
			m, st, err := TrainParallel(ds.X, ds.Y, 3, blobCfg(ds, h))
			if err != nil {
				t.Fatal(err)
			}
			if !st.Converged {
				t.Fatal("not converged")
			}
			acc, err := m.Evaluate(ds.TestX, ds.TestY)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(acc.Accuracy-refAcc.Accuracy) > 1.0 {
				t.Fatalf("accuracy %v%% vs reference %v%%", acc.Accuracy, refAcc.Accuracy)
			}
			if math.Abs(st.Objective-refSt.Objective) > 1e-2*(1+math.Abs(refSt.Objective)) {
				t.Fatalf("objective %v vs reference %v", st.Objective, refSt.Objective)
			}
		})
	}
}

func TestAggressiveHeuristicsShrink(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.25)
	_, st, err := TrainParallel(ds.X, ds.Y, 2, blobCfg(ds, Multi2))
	if err != nil {
		t.Fatal(err)
	}
	if st.ShrinkEvents == 0 {
		t.Fatal("Multi2 never shrank")
	}
	if st.Reconstructions == 0 {
		t.Fatal("Multi2 never reconstructed")
	}
}

func TestSingleReconstructsAtMostOnce(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.25)
	for _, h := range []Heuristic{Single2, Single500, Single5pc} {
		_, st, err := TrainParallel(ds.X, ds.Y, 3, blobCfg(ds, h))
		if err != nil {
			t.Fatal(err)
		}
		if st.Reconstructions > 1 {
			t.Fatalf("%s reconstructed %d times", h.Name, st.Reconstructions)
		}
	}
}

func TestConservativeThresholdMayNeverShrink(t *testing.T) {
	// With InitialFrac=0.5 and a dataset that converges in fewer than
	// N/2 iterations, Single50pc must behave exactly like Original —
	// the paper's MNIST observation.
	ds := dataset.MustGenerate("blobs", 0.1) // 200 samples; threshold 100
	_, stOrig, err := TrainParallel(ds.X, ds.Y, 2, blobCfg(ds, Original))
	if err != nil {
		t.Fatal(err)
	}
	if stOrig.Iterations >= 100 {
		t.Skipf("dataset converged in %d iterations; need < 100 for this check", stOrig.Iterations)
	}
	_, st, err := TrainParallel(ds.X, ds.Y, 2, blobCfg(ds, Single50pc))
	if err != nil {
		t.Fatal(err)
	}
	if st.ShrinkEvents != 0 {
		t.Fatalf("Single50pc shrank despite converging before the threshold")
	}
	if st.Iterations != stOrig.Iterations {
		t.Fatalf("iterations %d != Original %d", st.Iterations, stOrig.Iterations)
	}
}

func TestTraceRecording(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.25)
	cfg := blobCfg(ds, Multi5pc)
	cfg.RecordTrace = true
	m, st, err := TrainParallel(ds.X, ds.Y, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := st.Trace
	if tr == nil {
		t.Fatal("no trace recorded")
	}
	if tr.N != ds.Train() || tr.Iterations != st.Iterations {
		t.Fatalf("trace header wrong: %+v", tr)
	}
	if tr.Segments[0].FromIter != 0 || tr.Segments[0].Active != tr.N {
		t.Fatalf("first segment %+v", tr.Segments[0])
	}
	if len(tr.Recons) != st.Reconstructions {
		t.Fatalf("trace has %d recons, stats %d", len(tr.Recons), st.Reconstructions)
	}
	// Active counts must be non-negative and <= N, and iterations ordered.
	var lastIter int64 = -1
	for _, s := range tr.Segments {
		if s.Active < 0 || s.Active > tr.N {
			t.Fatalf("segment active %d out of range", s.Active)
		}
		if s.FromIter <= lastIter {
			t.Fatalf("segments not strictly ordered: %+v", tr.Segments)
		}
		lastIter = s.FromIter
	}
	if mf := tr.MeanActiveFraction(); mf <= 0 || mf > 1 {
		t.Fatalf("MeanActiveFraction = %v", mf)
	}
	if tr.SVCount != m.NumSV() {
		t.Fatalf("trace SVs %d != model %d", tr.SVCount, m.NumSV())
	}
}

func TestTrainInputValidation(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.1)
	cfg := blobCfg(ds, Original)
	if _, _, err := TrainParallel(ds.X, ds.Y, 0, cfg); err == nil {
		t.Error("p=0 accepted")
	}
	if _, _, err := TrainParallel(ds.X, ds.Y, ds.Train()+1, cfg); err == nil {
		t.Error("p > n accepted")
	}
	bad := cfg
	bad.C = -1
	if _, _, err := TrainParallel(ds.X, ds.Y, 2, bad); err == nil {
		t.Error("C<0 accepted")
	}
	bad = cfg
	bad.Kernel.Gamma = 0
	if _, _, err := TrainParallel(ds.X, ds.Y, 2, bad); err == nil {
		t.Error("bad kernel accepted")
	}
	bad = cfg
	bad.Heuristic = Heuristic{Name: "broken", Recon: ReconSingle}
	if _, _, err := TrainParallel(ds.X, ds.Y, 2, bad); err == nil {
		t.Error("invalid heuristic accepted")
	}
}

func TestMaxIterStops(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.15)
	cfg := blobCfg(ds, Original)
	cfg.Eps = 1e-9
	cfg.MaxIter = 7
	_, st, err := TrainParallel(ds.X, ds.Y, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Converged || st.Iterations != 7 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEqualityConstraintAcrossRanks(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.2)
	m, _, err := TrainParallel(ds.X, ds.Y, 5, blobCfg(ds, Multi5pc))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, c := range m.Coef {
		sum += c
	}
	if math.Abs(sum) > 1e-6*ds.C {
		t.Fatalf("sum alpha_i y_i = %v", sum)
	}
}

func TestVirtualTimeMakespan(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.15)
	cfg := blobCfg(ds, Original)
	cfg.Lambda = 1e-7
	net := mpi.NetModel{Alpha: 1e-6, Beta: 1e-9}
	_, _, t2, err := TrainParallelTimed(ds.X, ds.Y, 2, cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	_, _, t8, err := TrainParallelTimed(ds.X, ds.Y, 8, cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	if t2 <= 0 || t8 <= 0 {
		t.Fatalf("non-positive makespans: %v %v", t2, t8)
	}
	// With compute-dominated costs, 8 ranks should beat 2 ranks.
	if t8 >= t2 {
		t.Fatalf("makespan did not improve with ranks: p2=%v p8=%v", t2, t8)
	}
}

func TestShrinkConditionUnit(t *testing.T) {
	// Figure 2 of the paper: samples with gamma outside (betaUp, betaLow)
	// and bound at the matching side are shrinkable; free samples never.
	betaUp, betaLow := -0.5, 0.5
	cases := []struct {
		set    solver.IndexSet
		gamma  float64
		shrink bool
	}{
		{solver.I0, -2, false},
		{solver.I0, 2, false},
		{solver.I3, -1, true},   // y=+1 at C, gamma < betaUp
		{solver.I4, -1, true},   // y=-1 at 0, gamma < betaUp
		{solver.I3, 0, false},   // inside band
		{solver.I1, 1, true},    // y=+1 at 0, gamma > betaLow
		{solver.I2, 1, true},    // y=-1 at C, gamma > betaLow
		{solver.I1, -1, false},  // wrong side
		{solver.I4, 1, false},   // wrong side
		{solver.I2, 0.2, false}, // inside band
	}
	for _, tc := range cases {
		if got := solver.Shrinkable(tc.set, tc.gamma, betaUp, betaLow); got != tc.shrink {
			t.Errorf("Shrinkable(%v, %v) = %v, want %v", tc.set, tc.gamma, got, tc.shrink)
		}
	}
}

func TestPartition(t *testing.T) {
	x := sparse.FromDense(make([][]float64, 10))
	for _, p := range []int{1, 2, 3, 4, 7, 10} {
		covered := make([]int, 10)
		for q := 0; q < p; q++ {
			lo, hi := BlockRange(10, p, q)
			for g := lo; g < hi; g++ {
				covered[g]++
			}
		}
		for g, c := range covered {
			if c != 1 {
				t.Fatalf("p=%d: row %d covered %d times", p, g, c)
			}
		}
	}
	_ = x
	y := make([]float64, 10)
	for i := range y {
		y[i] = 1
	}
	xs := sparse.FromDense([][]float64{{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}, {9}, {10}})
	pt, err := NewPartition(xs, y, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Lo != 3 || pt.Hi != 6 || pt.Len() != 3 {
		t.Fatalf("partition = %+v", pt)
	}
	if g := pt.Global(0); g != 3 {
		t.Fatalf("Global(0) = %d", g)
	}
	if _, ok := pt.Local(2); ok {
		t.Fatal("Local(2) should not be owned")
	}
	if l, ok := pt.Local(4); !ok || l != 1 {
		t.Fatalf("Local(4) = %d, %v", l, ok)
	}
	if _, err := NewPartition(xs, y, 11, 0); err == nil {
		t.Fatal("p > n accepted")
	}
	if _, err := NewPartition(xs, y[:5], 2, 0); err == nil {
		t.Fatal("bad labels accepted")
	}
	if _, err := NewPartition(xs, y, 2, 5); err == nil {
		t.Fatal("bad rank accepted")
	}
}

func TestHeuristics(t *testing.T) {
	all := Table2()
	if len(all) != 13 {
		t.Fatalf("Table2 has %d heuristics, want 13", len(all))
	}
	seen := map[string]bool{}
	for _, h := range all {
		if err := h.Validate(); err != nil {
			t.Errorf("%s: %v", h.Name, err)
		}
		if seen[h.Name] {
			t.Errorf("duplicate heuristic %s", h.Name)
		}
		seen[h.Name] = true
		got, err := HeuristicByName(h.Name)
		if err != nil || got.Name != h.Name {
			t.Errorf("ByName(%s) = %+v, %v", h.Name, got, err)
		}
	}
	if _, err := HeuristicByName("nope"); err == nil {
		t.Error("unknown heuristic resolved")
	}
	if got := Single5pc.InitialThreshold(1000); got != 50 {
		t.Errorf("Single5pc threshold = %d, want 50", got)
	}
	if got := Multi2.InitialThreshold(1000); got != 2 {
		t.Errorf("Multi2 threshold = %d, want 2", got)
	}
	if got := Original.InitialThreshold(1000); got != math.MaxInt64 {
		t.Errorf("Original threshold = %d", got)
	}
	if got := Multi50pc.InitialThreshold(1); got != 1 {
		t.Errorf("tiny-n threshold = %d, want >= 1", got)
	}
	bad := Heuristic{Name: "x", Recon: ReconSingle, InitialIters: 5, InitialFrac: 0.1}
	if err := bad.Validate(); err == nil {
		t.Error("both thresholds accepted")
	}
}

func TestReconModeAndClassStrings(t *testing.T) {
	if ReconNone.String() != "None" || ReconSingle.String() != "Single" || ReconMulti.String() != "Multi" {
		t.Error("ReconMode strings wrong")
	}
	for _, c := range []Class{ClassNone, ClassAggressive, ClassAverage, ClassConservative} {
		if c.String() == "" {
			t.Error("empty class string")
		}
	}
}

func BenchmarkTrainBlobsOriginal(b *testing.B) {
	ds := dataset.MustGenerate("blobs", 0.25)
	cfg := blobCfg(ds, Original)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := TrainParallel(ds.X, ds.Y, 4, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainBlobsMulti5pc(b *testing.B) {
	ds := dataset.MustGenerate("blobs", 0.25)
	cfg := blobCfg(ds, Multi5pc)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := TrainParallel(ds.X, ds.Y, 4, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSecondOrderSelection(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.2)
	first := blobCfg(ds, Multi5pc)
	first.RecordTrace = true
	// The eval-rate check below measures the K(up, .) row being shared
	// within an iteration, so both runs go without the kernel-row cache:
	// its misses are mostly first fills of a pair sample's row, which
	// second-order's far fewer iterations amortize less.
	first.CacheBytes = -1
	second := first
	second.SecondOrder = true
	_, st1, err := TrainParallel(ds.X, ds.Y, 3, first)
	if err != nil {
		t.Fatal(err)
	}
	m2, st2, err := TrainParallel(ds.X, ds.Y, 3, second)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Converged {
		t.Fatal("second-order run did not converge")
	}
	if st2.Iterations > st1.Iterations*11/10 {
		t.Fatalf("second-order %d iterations vs first-order %d", st2.Iterations, st1.Iterations)
	}
	if math.Abs(st1.Objective-st2.Objective) > 1e-2*(1+math.Abs(st1.Objective)) {
		t.Fatalf("objectives diverged: %v vs %v", st1.Objective, st2.Objective)
	}
	acc, err := m2.Evaluate(ds.TestX, ds.TestY)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Accuracy < 90 {
		t.Fatalf("second-order accuracy %v%%", acc.Accuracy)
	}
	if st2.Trace.WSS != "second-order" {
		t.Fatalf("trace WSS = %q", st2.Trace.WSS)
	}
	// The kernel evaluation count must stay ~2 per active sample per
	// iteration: the K(up, .) row is shared between selection and the
	// gradient update. (Normalize by the mean active-set size — with far
	// fewer iterations the active set has less time to shrink.)
	norm := func(st *Stats) float64 {
		return float64(st.KernelEvals) / float64(st.Iterations) /
			(float64(ds.Train()) * st.Trace.MeanActiveFraction())
	}
	if r2, r1 := norm(st2), norm(st1); r2 > r1*1.3 {
		t.Fatalf("second-order normalized eval rate %.2f vs first-order %.2f: row not reused", r2, r1)
	}
}

func TestSecondOrderIterateSequenceIndependentOfP(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.15)
	cfg := blobCfg(ds, Single500)
	cfg.SecondOrder = true
	var refIters int64
	var refBeta float64
	for _, p := range []int{1, 3, 4} {
		m, st, err := TrainParallel(ds.X, ds.Y, p, cfg)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if p == 1 {
			refIters, refBeta = st.Iterations, m.Beta
			continue
		}
		if st.Iterations != refIters || math.Abs(m.Beta-refBeta) > 1e-9 {
			t.Fatalf("p=%d: iterate sequence diverged (%d vs %d, beta %v vs %v)",
				p, st.Iterations, refIters, m.Beta, refBeta)
		}
	}
}

// TestNonGaussianKernels exercises the full distributed pipeline with the
// pluggable kernels the paper's infrastructure advertises ("allows us to
// plugin other kernels (such as linear, polynomial)").
func TestNonGaussianKernels(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.15)
	kernels := []kernel.Params{
		{Type: kernel.Linear},
		{Type: kernel.Polynomial, Gamma: 1, Coef0: 1, Degree: 3},
		{Type: kernel.Sigmoid, Gamma: 0.5, Coef0: -0.5},
	}
	for _, kp := range kernels {
		kp := kp
		t.Run(kp.String(), func(t *testing.T) {
			cfg := Config{Kernel: kp, C: 1, Eps: 1e-2, Heuristic: Multi5pc}
			cfg.MaxIter = 200_000
			m, st, err := TrainParallel(ds.X, ds.Y, 3, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
			acc, err := m.Evaluate(ds.TestX, ds.TestY)
			if err != nil {
				t.Fatal(err)
			}
			// blobs is not linearly separable in 2-D for every kernel, but
			// any sane decision function beats coin flipping by a wide
			// margin on this geometry.
			if acc.Accuracy < 75 {
				t.Fatalf("accuracy %v%% with %v (converged=%v)", acc.Accuracy, kp, st.Converged)
			}
			// p-independence must hold for non-Gaussian kernels too.
			_, st1, err := TrainParallel(ds.X, ds.Y, 1, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if st1.Iterations != st.Iterations {
				t.Fatalf("iterations differ across p: %d vs %d", st1.Iterations, st.Iterations)
			}
		})
	}
}
