package core

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/mpi"
)

// cachedRun is what TestCacheBudgetEquivalence compares across budgets.
type cachedRun struct {
	model []byte // rank 0's model file
	st    *Stats
	sends []int // per rank
	ckpt  []byte
}

// trainRanks trains on p ranks inside its own mpi.Run, so each rank's send
// count can be read, and returns the model file, rank 0's stats and, when
// cfg checkpoints into ckptDir, the latest checkpoint's bytes.
func trainRanks(t *testing.T, ds *dataset.Dataset, p int, cfg Config, ckptDir string) cachedRun {
	t.Helper()
	run := cachedRun{sends: make([]int, p)}
	var m *model.Model
	err := mpi.Run(p, func(c *mpi.Comm) error {
		pt, err := NewPartition(ds.X, ds.Y, p, c.Rank())
		if err != nil {
			return err
		}
		rm, st, err := Train(c, pt, cfg)
		if err != nil {
			return err
		}
		run.sends[c.Rank()] = c.Sends()
		if c.Rank() == 0 {
			m, run.st = rm, st
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	run.model = buf.Bytes()
	if ckptDir != "" {
		if run.ckpt, err = os.ReadFile(filepath.Join(ckptDir, "checkpoint.ckpt")); err != nil {
			t.Fatal(err)
		}
	}
	return run
}

// TestCacheBudgetEquivalence: the kernel-row cache only saves kernel
// evaluations. At the default budget, at a budget below one row (nothing
// is cached) and at three rows per rank (every new pair row evicts), the
// models, iteration counts, objective bits, checkpoints and every rank's
// send count are the same, for the four heuristic families, both
// selection modes, p = 1..3, a warm start and a checkpoint resume.
func TestCacheBudgetEquivalence(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.1)
	n := ds.X.Rows()
	partial := blobCfg(ds, Multi5pc)
	partial.MaxIter = 150
	warmFrom, _ := solveChecked(t, ds, 1, partial)

	// A variant's cfg is the configuration to compare at budget
	// cacheBytes on p ranks, and the directory it checkpoints into ("" for
	// none).
	type variant struct {
		name string
		cfg  func(t *testing.T, p int, cacheBytes int64) (Config, string)
	}
	var variants []variant
	for _, h := range []Heuristic{Original, Single500, Multi5pc, Multi2} {
		for _, second := range []bool{false, true} {
			h, second := h, second
			variants = append(variants, variant{fmt.Sprintf("%s/second=%v", h.Name, second), func(_ *testing.T, _ int, cacheBytes int64) (Config, string) {
				cfg := blobCfg(ds, h)
				cfg.SecondOrder, cfg.CacheBytes = second, cacheBytes
				return cfg, ""
			}})
		}
	}
	variants = append(variants, variant{"WarmStart", func(_ *testing.T, _ int, cacheBytes int64) (Config, string) {
		cfg := blobCfg(ds, Multi5pc)
		cfg.InitialAlpha, cfg.CacheBytes = warmFrom, cacheBytes
		return cfg, ""
	}})
	// Checkpoint resume: a run checkpoints and stops at MaxIter (as a
	// crash would), and a second run resumes from the checkpoint's alpha.
	variants = append(variants, variant{"CheckpointResume", func(t *testing.T, p int, cacheBytes int64) (Config, string) {
		dir := filepath.Join(t.TempDir(), "ck")
		w, err := ckpt.NewWriter(dir)
		if err != nil {
			t.Fatal(err)
		}
		cfg := blobCfg(ds, Multi2)
		cfg.Checkpoint, cfg.CheckpointEvery, cfg.MaxIter = w, 40, 130
		cfg.CacheBytes = cacheBytes
		if _, _, err := TrainParallel(ds.X, ds.Y, p, cfg); err != nil {
			t.Fatal(err)
		}
		state, _, err := ckpt.Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		resume := blobCfg(ds, Multi2)
		resume.InitialAlpha, resume.CacheBytes = state.Alpha, cacheBytes
		dir2 := filepath.Join(t.TempDir(), "ck2")
		w2, err := ckpt.NewWriter(dir2)
		if err != nil {
			t.Fatal(err)
		}
		resume.Checkpoint, resume.CheckpointEvery = w2, 25
		return resume, dir2
	}})

	for _, v := range variants {
		for p := 1; p <= 3; p++ {
			t.Run(fmt.Sprintf("%s/p=%d", v.name, p), func(t *testing.T) {
				width := int64(n/p + 2) // the widest rank's block and the self-kernel entry
				budgets := []struct {
					name  string
					bytes int64
				}{{"default", 0}, {"below-one-row", 8}, {"three-rows", 3 * 8 * width * int64(p)}}
				var ref cachedRun
				for k, b := range budgets {
					cfg, dir := v.cfg(t, p, b.bytes)
					got := trainRanks(t, ds, p, cfg, dir)
					switch b.name {
					case "default":
						if got.st.CacheHits == 0 {
							t.Errorf("default budget: no cache hits (%+v)", got.st.Stats)
						}
					case "below-one-row":
						if got.st.CacheHits != 0 || got.st.CacheEvictions != 0 {
							t.Errorf("budget below one row: %d hits, %d evictions", got.st.CacheHits, got.st.CacheEvictions)
						}
					case "three-rows":
						if got.st.CacheEvictions == 0 {
							t.Errorf("three-row budget: no evictions (%+v)", got.st.Stats)
						}
					}
					if k == 0 {
						ref = got
						continue
					}
					if !bytes.Equal(got.model, ref.model) {
						t.Errorf("%s budget: model differs from the default budget's", b.name)
					}
					if got.st.Iterations != ref.st.Iterations || math.Float64bits(got.st.Objective) != math.Float64bits(ref.st.Objective) {
						t.Errorf("%s budget: %d iterations, objective %v; default: %d, %v",
							b.name, got.st.Iterations, got.st.Objective, ref.st.Iterations, ref.st.Objective)
					}
					if fmt.Sprint(got.sends) != fmt.Sprint(ref.sends) {
						t.Errorf("%s budget: sends per rank %v, default %v", b.name, got.sends, ref.sends)
					}
					if !bytes.Equal(got.ckpt, ref.ckpt) {
						t.Errorf("%s budget: checkpoint differs from the default budget's", b.name)
					}
					if got.st.KernelEvals < ref.st.KernelEvals {
						t.Errorf("%s budget: %d kernel evaluations, fewer than the default budget's %d",
							b.name, got.st.KernelEvals, ref.st.KernelEvals)
					}
				}
			})
		}
	}
}

// TestModelingStaysCacheless: the virtual clock charges the paper's
// cacheless kernel cost whatever the cache answers, so TrainParallelTimed
// makespans are bit-identical with the cache on and off, for every
// heuristic family, both selection modes and p = 1..4. perfmodel and the
// Figure 3-8 reproductions rest on these makespans.
func TestModelingStaysCacheless(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.1)
	for _, h := range []Heuristic{Original, Single500, Multi5pc, Multi2} {
		for _, second := range []bool{false, true} {
			for p := 1; p <= 4; p++ {
				makespan := func(cacheBytes int64) (float64, *Stats) {
					cfg := blobCfg(ds, h)
					cfg.SecondOrder = second
					cfg.Lambda = 1e-7
					cfg.CacheBytes = cacheBytes
					_, st, ms, err := TrainParallelTimed(ds.X, ds.Y, p, cfg, mpi.FDR())
					if err != nil {
						t.Fatal(err)
					}
					return ms, st
				}
				on, stOn := makespan(0)
				off, stOff := makespan(-1)
				if stOn.CacheHits == 0 || stOff.CacheHits != 0 {
					t.Fatalf("%s second=%v p=%d: %d hits with the cache on, %d off", h.Name, second, p, stOn.CacheHits, stOff.CacheHits)
				}
				if math.Float64bits(on) != math.Float64bits(off) {
					t.Errorf("%s second=%v p=%d: makespan %v with the cache, %v without", h.Name, second, p, on, off)
				}
			}
		}
	}
}
