package core

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/mpi"
)

// TestPairTrafficAndPInvariance pins the per-iteration traffic of the
// working-pair exchange: at p=2 one selection Allreduce is one message per
// rank, so the ranks' summed sends stay close to 2 per iteration (shrink
// checks, reconstruction rings and the final reductions add a little).
// Routing the pair through rank 0 and broadcasting it cost about 7. The
// same test checks that p = 1..5 produce byte-identical models, which a
// tie-break depending on rank order would break. The one exception is the
// threshold: beta is a floating-point sum over the free set that each
// rank partially sums first, so its last bits follow the partition; it
// must agree to 1e-12.
func TestPairTrafficAndPInvariance(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.15)
	cfg := blobCfg(ds, Multi5pc)

	var ref []byte
	var refBeta float64
	for p := 1; p <= 5; p++ {
		sends := make([]int, p)
		var m *model.Model
		var st *Stats
		err := mpi.Run(p, func(c *mpi.Comm) error {
			pt, err := NewPartition(ds.X, ds.Y, p, c.Rank())
			if err != nil {
				return err
			}
			rm, rst, err := Train(c, pt, cfg)
			if err != nil {
				return err
			}
			sends[c.Rank()] = c.Sends()
			if c.Rank() == 0 {
				m, st = rm, rst
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if p == 2 {
			perIter := float64(sends[0]+sends[1]) / float64(st.Iterations)
			t.Logf("p=2: %d iterations, %.3f messages per iteration", st.Iterations, perIter)
			if perIter > 2.2 {
				t.Errorf("p=2 sends %.3f messages per iteration, want <= 2.2", perIter)
			}
		}
		if p == 1 {
			refBeta = m.Beta
		} else if math.Abs(m.Beta-refBeta) > 1e-12 {
			t.Errorf("p=%d: beta %v, p=1 has %v", p, m.Beta, refBeta)
		}
		m.Beta = 0
		var buf bytes.Buffer
		if err := m.Write(&buf); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), ref) {
			t.Errorf("p=%d: model differs from p=1 beyond beta", p)
		}
	}
}
