package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mpi"
)

// solveChecked trains like Train, and on every selectPair compares the
// violators about to be reduced (recorded by the last Update, or
// scanned after a cold start, reconstruction or warm start), and the
// active list, with a full scan of the rank's state. It returns the
// global alpha and the number of selections checked on rank 0.
func solveChecked(t *testing.T, ds *dataset.Dataset, p int, cfg Config) ([]float64, int) {
	t.Helper()
	alpha := make([]float64, ds.X.Rows())
	var checks int
	err := mpi.Run(p, func(c *mpi.Comm) error {
		pt, err := NewPartition(ds.X, ds.Y, p, c.Rank())
		if err != nil {
			return err
		}
		s := newRankState(c, pt, cfg.withDefaults())
		var n int
		var failed error
		s.beforeReduce = func() {
			n++
			if failed != nil {
				return
			}
			rup, rlow := s.Violators()
			if up, low := s.Scan(); up != rup || low != rlow {
				failed = fmt.Errorf("iteration %d: recorded up %+v low %+v, scan finds up %+v low %+v",
					s.iter, rup, rlow, up, low)
				return
			}
			k := 0
			for i, a := range s.Active {
				if !a {
					continue
				}
				if k >= len(s.Idx) || s.Idx[k] != i {
					failed = fmt.Errorf("iteration %d: active list %v disagrees with the active flags at %d", s.iter, s.Idx, i)
					return
				}
				k++
			}
			if k != len(s.Idx) {
				failed = fmt.Errorf("iteration %d: active list holds %d entries, %d samples active", s.iter, len(s.Idx), k)
			}
		}
		if len(cfg.InitialAlpha) > 0 {
			if err := s.warmStart(); err != nil {
				return err
			}
		}
		if err := s.solve(); err != nil {
			return err
		}
		if _, _, err := s.finish(); err != nil {
			return err
		}
		if failed != nil {
			return failed
		}
		copy(alpha[pt.Lo:], s.Alpha)
		if c.Rank() == 0 {
			checks = n
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return alpha, checks
}

// TestRecordedViolatorsMatchScan: selectPair takes the local violators the
// last Update recorded instead of scanning, so on every iteration they
// must equal what a full scan finds, for every shrinking schedule,
// second-order selection and a warm start. solve's last selectPair and
// finish's are checked too.
func TestRecordedViolatorsMatchScan(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.1)
	partial := blobCfg(ds, Multi5pc)
	partial.MaxIter = 150
	warmFrom, _ := solveChecked(t, ds, 1, partial)

	cases := map[string]Config{
		"Original": blobCfg(ds, Original),
		"Single":   blobCfg(ds, Single500),
		"Multi5pc": blobCfg(ds, Multi5pc),
		"Multi2":   blobCfg(ds, Multi2),
	}
	second := blobCfg(ds, Multi5pc)
	second.SecondOrder = true
	cases["SecondOrder"] = second
	warm := blobCfg(ds, Multi5pc)
	warm.InitialAlpha = warmFrom
	cases["WarmStart"] = warm

	for name, cfg := range cases {
		for p := 1; p <= 3; p++ {
			t.Run(fmt.Sprintf("%s/p=%d", name, p), func(t *testing.T) {
				if _, checks := solveChecked(t, ds, p, cfg); checks < 2 {
					t.Fatalf("%d selections checked", checks)
				}
			})
		}
	}
}

// TestReconstructRescansViolators: a reconstruction re-admits samples no
// gradient pass has seen since they were eliminated, so selectPair must
// scan again. The datasets above never eliminate a sample that later wins,
// so this test eliminates the worst up violator by hand (a false shrink),
// records the violators over the rest, and reconstructs.
func TestReconstructRescansViolators(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.1)
	err := mpi.Run(1, func(c *mpi.Comm) error {
		pt, err := NewPartition(ds.X, ds.Y, 1, 0)
		if err != nil {
			return err
		}
		cfg := blobCfg(ds, Multi5pc)
		s := newRankState(c, pt, cfg.withDefaults())
		want, _ := s.Scan()
		s.Active[want.Loc] = false
		s.Idx = slices.DeleteFunc(s.Idx, func(i int) bool { return i == want.Loc })
		s.Violators()
		if err := s.reconstruct(); err != nil {
			return err
		}
		pair, err := s.selectPair()
		if err != nil {
			return err
		}
		if pair.Up.ValLoc != want {
			return fmt.Errorf("after reconstruction selectPair chose up %+v, want %+v", pair.Up.ValLoc, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReconstructRejectsMembershipMismatch: reconstruction names the
// global index of each ring-block row through the alpha > 0 membership
// every rank keeps. A block with a row the membership lacks, or missing a
// row it has, is an error, never a panic or a gradient built from the
// wrong cached row.
func TestReconstructRejectsMembershipMismatch(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.1)
	for _, blockHasExtra := range []bool{false, true} {
		err := mpi.Run(1, func(c *mpi.Comm) error {
			pt, err := NewPartition(ds.X, ds.Y, 1, 0)
			if err != nil {
				return err
			}
			cfg := blobCfg(ds, Multi5pc)
			s := newRankState(c, pt, cfg.withDefaults())
			s.Active[0], s.Idx = false, s.Idx[1:] // one stale gradient
			if blockHasExtra {
				s.Alpha[1] = 1
			} else {
				s.isSV[1] = true
			}
			return s.reconstruct()
		})
		if err == nil || !strings.Contains(err.Error(), "alpha > 0") {
			t.Errorf("block has extra row %v: reconstruct returned %v, want a membership error", blockHasExtra, err)
		}
	}
}

// TestSteadyStateIterationAllocs pins the allocations of one p=2
// iteration, in both selection modes, at zero: the selection Allreduces
// fill rank-owned slots in place and send pointers to them, which box
// into an interface without allocating. The count is the difference
// between two iteration caps, which cancels set-up and model assembly;
// Original never shrinks, so no shrink check falls in between.
func TestSteadyStateIterationAllocs(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.1)
	for _, second := range []bool{false, true} {
		allocs := func(iters int64) float64 {
			cfg := blobCfg(ds, Original)
			cfg.SecondOrder = second
			cfg.MaxIter = iters
			return testing.AllocsPerRun(5, func() {
				if _, st, err := TrainParallel(ds.X, ds.Y, 2, cfg); err != nil || st.Iterations != iters {
					t.Fatalf("SecondOrder %v, MaxIter %d: %d iterations, err %v", second, iters, st.Iterations, err)
				}
			})
		}
		lo, hi := int64(50), int64(250)
		if second {
			lo, hi = 20, 120 // blobs converges in 149 second-order iterations
		}
		perIter := (allocs(hi) - allocs(lo)) / float64(hi-lo)
		t.Logf("SecondOrder %v: %.2f allocations per iteration at p=2", second, perIter)
		if perIter > 0 {
			t.Errorf("SecondOrder %v: %.2f allocations per iteration at p=2, want 0", second, perIter)
		}
	}
}

// BenchmarkTrainCodrnaP1 is svmperf's paper-codrna training call (416
// cod-rna rows, Multi5pc) on one rank, the core.p1_ms op: no collective
// has a partner, so kernel rows, the cache and the gradient pass are the
// work.
func BenchmarkTrainCodrnaP1(b *testing.B) { benchTrainCodrna(b, 1) }

// BenchmarkTrainCodrnaP2 is one training call of svmperf's paper-codrna
// workload (416 cod-rna rows, Multi5pc, 2 ranks), where the per-iteration
// selection Allreduce costs as much as the gradient pass.
func BenchmarkTrainCodrnaP2(b *testing.B) { benchTrainCodrna(b, 2) }

func benchTrainCodrna(b *testing.B, p int) {
	ds := dataset.MustGenerate("codrna", 0.007)
	cfg := blobCfg(ds, Multi5pc)
	b.ReportAllocs()
	b.ResetTimer()
	var iters int64
	for i := 0; i < b.N; i++ {
		_, st, err := TrainParallel(ds.X, ds.Y, p, cfg)
		if err != nil {
			b.Fatal(err)
		}
		iters = st.Iterations
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(iters), "ns/iter")
}
