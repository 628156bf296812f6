package bench

import (
	"fmt"
	"time"

	"repro/internal/solver"
)

// RunAblationCache varies the kernel-cache budget of the libsvm-enhanced
// baseline, the setting of the Section III-A2 argument against one fixed
// cache per node: hit rates (and the benefit) fall as the dataset outgrows
// the budget.
func RunAblationCache(o Options) (*Report, error) {
	o = o.withDefaults()
	start := time.Now()
	ds, _, err := loadDataset(o, "mnist38")
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:     "ablation-cache",
		Title:  fmt.Sprintf("Kernel-cache budget in libsvm-enhanced on %s", ds.Name),
		Header: []string{"cache", "hit-rate", "evictions", "kernel-evals", "elapsed"},
	}
	rowBytes := int64(8 * ds.Train())
	budgets := []struct {
		name  string
		bytes int64
	}{
		{"none", -1},
		{"16 rows", 16 * rowBytes},
		{"n/8 rows", int64(ds.Train()/8) * rowBytes},
		{"full", solver.DefaultCacheBytes},
	}
	for _, b := range budgets {
		t0 := time.Now()
		res, err := train(o, "smo", ds, solver.Options{Workers: o.BaselineWorkers, CacheBytes: b.bytes})
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(t0)
		rep.Rows = append(rep.Rows, []string{
			b.name, pct(res.CacheHitRate()), fmt.Sprintf("%d", res.CacheEvictions),
			fmt.Sprintf("%d", res.KernelEvals), elapsed.Round(time.Millisecond).String(),
		})
	}
	rep.Notes = append(rep.Notes, "the distributed solver caches pair rows per rank over its own n/p block (core.Config.CacheBytes), so the rows the caches hold grow with p")
	rep.Took = time.Since(start)
	return rep, nil
}
