package core

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/sparse"
)

// Shard-aware loading for the distributed solver. A multi-rank run used to
// funnel the whole file through one sequential parse and then slice it;
// LoadShardPartitions instead parses the input as p byte-range shards in
// parallel (or as p pre-split shard files), composes the dataset
// fingerprint from per-shard partials — the same value a single-node load
// computes, for every shard count — and rebalances the byte-split rows onto
// the BlockRange row boundaries every Partition is cut at. Training from
// the result is bit-identical to TrainParallel on the unsharded file.

// ShardedData is a dataset loaded shard-wise and repartitioned for p ranks.
type ShardedData struct {
	Partitions  []*Partition
	N           int    // global sample count
	Cols        int    // global feature count
	Fingerprint uint64 // composed fingerprint (== ckpt.Fingerprint of the whole)

	// X and Y are the spliced global dataset in file row order (the
	// partitions copy from it). Kept so callers can evaluate or verify
	// against the full data without re-reading the file.
	X *sparse.Matrix
	Y []float64
}

// LoadShardPartitions loads the libsvm dataset at path as p shards in
// parallel and returns rank partitions on BlockRange boundaries.
func LoadShardPartitions(path string, p int) (*ShardedData, error) {
	if p <= 0 {
		return nil, fmt.Errorf("core: process count must be positive, got %d", p)
	}
	shards, err := dataset.LoadSharded(path, p)
	if err != nil {
		return nil, err
	}
	// The fingerprint composes from per-shard partials before any
	// rebalancing: each shard hashes its rows at their global indices, the
	// sums add, and the result equals the single-node fingerprint.
	var sum uint64
	n, cols := 0, 0
	for _, s := range shards {
		sum += ckpt.PartialFingerprint(s.X, s.Y, s.Lo)
		n += s.X.Rows()
		if s.X.Cols > cols {
			cols = s.X.Cols
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("core: %s holds no samples", path)
	}
	if p > n {
		return nil, fmt.Errorf("core: more ranks (%d) than samples (%d)", p, n)
	}
	fp := ckpt.FinishFingerprint(n, cols, sum)

	// Byte-balanced shard boundaries are not the solver's row-balanced
	// BlockRange boundaries; splice and re-slice so each rank owns exactly
	// the rows BlockRange gives it.
	x, y := dataset.ConcatShards(shards)
	parts := make([]*Partition, p)
	for q := 0; q < p; q++ {
		parts[q], err = NewPartition(x, y, p, q)
		if err != nil {
			return nil, err
		}
	}
	return &ShardedData{Partitions: parts, N: n, Cols: cols, Fingerprint: fp, X: x, Y: y}, nil
}

// TrainOpts runs the distributed solver over the loaded partitions, exactly
// as TrainParallelOpts does over an in-memory dataset. The composed
// fingerprint stamps any checkpoints, so a resume from a differently-
// sharded (or unsharded) copy of the same data is accepted, and a resume
// from mutated data is rejected.
func (d *ShardedData) TrainOpts(cfg Config, opts mpi.Options) (*model.Model, *Stats, float64, error) {
	p := len(d.Partitions)
	if cfg.Checkpoint != nil && cfg.CheckpointFingerprint == 0 {
		cfg.CheckpointFingerprint = d.Fingerprint
	}
	models := make([]*model.Model, p)
	stats := make([]*Stats, p)
	times, err := mpi.RunTimed(p, opts, func(c *mpi.Comm) error {
		m, st, err := Train(c, d.Partitions[c.Rank()], cfg)
		if err != nil {
			return err
		}
		models[c.Rank()] = m
		stats[c.Rank()] = st
		return nil
	})
	if err != nil {
		return nil, nil, 0, err
	}
	return models[0], stats[0], mpi.MaxTime(times), nil
}
