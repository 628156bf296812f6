package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
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

// pinnedTraffic is one run's modeled traffic: each rank's message count
// and bytes, and the bits of the FDR makespan.
type pinnedTraffic struct {
	heuristic string
	second    bool
	p         int
	sends     []int
	bytes     []int64
	makespan  uint64
}

// pinnedTrafficTable holds blobs x0.15 runs with Lambda 50 ns under
// mpi.FDR(), recorded before the selection Allreduce sent pointers
// instead of values.
var pinnedTrafficTable = []pinnedTraffic{
	{"Original", false, 1, []int{0}, []int64{0}, 0x3fab1f59619b2533},
	{"Original", false, 2, []int{1764, 1765}, []int64{309648, 310808}, 0x3f9e03e6b7d2e03e},
	{"Original", false, 3, []int{1764, 3529, 1765}, []int64{309648, 620120, 310424}, 0x3f9a8817f1178b74},
	{"Original", false, 4, []int{3528, 3529, 3529, 3529}, []int64{619296, 619880, 619928, 619832}, 0x3f93470c682769e6},
	{"Original", false, 5, []int{1764, 5293, 3529, 3529, 3529}, []int64{309648, 929288, 619832, 619832, 619688}, 0x3f96174c103d2479},
	{"Original", true, 1, []int{0}, []int64{0}, 0x3f7aacbf104ba77e},
	{"Original", true, 2, []int{439, 440}, []int64{57440, 58456}, 0x3f70246f2f46f978},
	{"Original", true, 3, []int{439, 879, 440}, []int64{57440, 115560, 58072}, 0x3f712e9c1aa33f25},
	{"Original", true, 4, []int{878, 879, 879, 879}, []int64{114880, 115272, 115512, 115272}, 0x3f687a0da6750d79},
	{"Original", true, 5, []int{439, 1318, 879, 879, 879}, []int64{57440, 172520, 115368, 115368, 115176}, 0x3f705fe928d81a44},
	{"Single500", false, 1, []int{0}, []int64{0}, 0x3f97b34897488591},
	{"Single500", false, 2, []int{1774, 1775}, []int64{310760, 312208}, 0x3f8dba4874f2ffe0},
	{"Single500", false, 3, []int{1775, 3549, 1776}, []int64{311104, 621864, 312264}, 0x3f9026ac7de39c57},
	{"Single500", false, 4, []int{3549, 3550, 3550, 3550}, []int64{621240, 621776, 621920, 622064}, 0x3f87f8175d73d986},
	{"Single500", false, 5, []int{1777, 5324, 3551, 3551, 3551}, []int64{311600, 931528, 621832, 621976, 621976}, 0x3f8eee4f1be558f2},
	{"Single500", true, 1, []int{0}, []int64{0}, 0x3f7aacbf104ba77e},
	{"Single500", true, 2, []int{439, 440}, []int64{57440, 58456}, 0x3f70246f2f46f978},
	{"Single500", true, 3, []int{439, 879, 440}, []int64{57440, 115560, 58072}, 0x3f712e9c1aa33f25},
	{"Single500", true, 4, []int{878, 879, 879, 879}, []int64{114880, 115272, 115512, 115272}, 0x3f687a0da6750d79},
	{"Single500", true, 5, []int{439, 1318, 879, 879, 879}, []int64{57440, 172520, 115368, 115368, 115176}, 0x3f705fe928d81a44},
	{"Multi5pc", false, 1, []int{0}, []int64{0}, 0x3f9459d6352b5a9a},
	{"Multi5pc", false, 2, []int{1837, 1838}, []int64{312488, 314368}, 0x3f8b0770200ccdf1},
	{"Multi5pc", false, 3, []int{1839, 3675, 1840}, []int64{313224, 624840, 314960}, 0x3f8e9b38ad9e0b9d},
	{"Multi5pc", false, 4, []int{3676, 3677, 3677, 3677}, []int64{624464, 624856, 625144, 625576}, 0x3f8702e2eafdf1f6},
	{"Multi5pc", false, 5, []int{1843, 5514, 3679, 3679, 3679}, []int64{314408, 935424, 625112, 625352, 625592}, 0x3f8e7e9dd680edea},
	{"Multi5pc", true, 1, []int{0}, []int64{0}, 0x3f74bba12b5e5294},
	{"Multi5pc", true, 2, []int{417, 418}, []int64{54784, 56424}, 0x3f668cd34bd62b58},
	{"Multi5pc", true, 3, []int{419, 835, 420}, []int64{55472, 109768, 56440}, 0x3f6b09323a717768},
	{"Multi5pc", true, 4, []int{836, 837, 837, 837}, []int64{109656, 109448, 110048, 110072}, 0x3f6401fa5b2a7801},
	{"Multi5pc", true, 5, []int{423, 1254, 839, 839, 839}, []int64{56344, 163272, 109896, 109584, 109992}, 0x3f6bee03e5cf6389},
	{"Multi2", false, 1, []int{0}, []int64{0}, 0x3f953b6cbd987c43},
	{"Multi2", false, 2, []int{2079, 2080}, []int64{314424, 316304}, 0x3f8cda6317868d42},
	{"Multi2", false, 3, []int{2081, 4159, 2082}, []int64{315160, 628712, 316896}, 0x3f90ca7e707aee36},
	{"Multi2", false, 4, []int{4160, 4161, 4161, 4161}, []int64{628336, 628728, 629016, 629448}, 0x3f88ffa3b219bad2},
	{"Multi2", false, 5, []int{2085, 6240, 4163, 4163, 4163}, []int64{316344, 941232, 628984, 629224, 629464}, 0x3f90fbfaef569b64},
	{"Multi2", true, 1, []int{0}, []int64{0}, 0x3f7b994e1a3f464f},
	{"Multi2", true, 2, []int{476, 477}, []int64{62880, 64232}, 0x3f70eccf25c794d6},
	{"Multi2", true, 3, []int{478, 953, 479}, []int64{63472, 125624, 64488}, 0x3f723d6116271541},
	{"Multi2", true, 4, []int{954, 955, 955, 955}, []int64{125248, 125448, 125880, 125832}, 0x3f6a3a4070351e75},
	{"Multi2", true, 5, []int{482, 1431, 957, 957, 957}, []int64{64368, 186696, 125752, 125992, 125848}, 0x3f717309e2d7d0c4},
}

// TestModeledTrafficPinned pins what the time model sees of a training:
// every rank's Sends and SentBytes, and the bits of TrainParallelTimed's
// FDR makespan, for every shrinking schedule, both selection rules and
// p = 1..5. How payloads travel between ranks is free to change; the
// messages, their modeled sizes and the virtual clocks are not.
func TestModeledTrafficPinned(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.15)
	heuristics := map[string]Heuristic{"Original": Original, "Single500": Single500, "Multi5pc": Multi5pc, "Multi2": Multi2}
	for _, want := range pinnedTrafficTable {
		cfg := blobCfg(ds, heuristics[want.heuristic])
		cfg.SecondOrder = want.second
		cfg.Lambda = 50e-9
		p := want.p
		sends := make([]int, p)
		bytes := make([]int64, p)
		_, err := mpi.RunTimed(p, mpi.Options{Net: mpi.FDR()}, func(c *mpi.Comm) error {
			pt, err := NewPartition(ds.X, ds.Y, p, c.Rank())
			if err != nil {
				return err
			}
			if _, _, err := Train(c, pt, cfg); err != nil {
				return err
			}
			sends[c.Rank()], bytes[c.Rank()] = c.Sends(), c.SentBytes()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		_, _, makespan, err := TrainParallelTimed(ds.X, ds.Y, p, cfg, mpi.FDR())
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s/second=%v/p=%d", want.heuristic, want.second, p)
		if !slices.Equal(sends, want.sends) || !slices.Equal(bytes, want.bytes) {
			t.Errorf("%s: sends %v bytes %v, want %v %v", name, sends, bytes, want.sends, want.bytes)
		}
		if got := math.Float64bits(makespan); got != want.makespan {
			t.Errorf("%s: makespan %v (%#x), want %v (%#x)", name, makespan, got, math.Float64frombits(want.makespan), want.makespan)
		}
	}
}
