package mpi

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// worldSizes covers 1, 2, powers of two, and awkward non-powers of two.
var worldSizes = []int{1, 2, 3, 4, 5, 7, 8, 13, 16}

// minF64 and maxF64 are test-local reduce operators.
func minF64(a, b float64) float64 { return min(a, b) }
func maxF64(a, b float64) float64 { return max(a, b) }

func TestBcastAllSizesAllRoots(t *testing.T) {
	for _, p := range worldSizes {
		for root := 0; root < p; root++ {
			p, root := p, root
			t.Run(fmt.Sprintf("p%d_root%d", p, root), func(t *testing.T) {
				err := Run(p, func(c *Comm) error {
					v := []float64(nil)
					if c.Rank() == root {
						v = []float64{3.5, float64(root)}
					}
					got, err := Bcast(c, v, root)
					if err != nil {
						return err
					}
					if len(got) != 2 || got[0] != 3.5 || got[1] != float64(root) {
						return fmt.Errorf("rank %d got %v", c.Rank(), got)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestBcastInvalidRoot(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		_, err := Bcast(c, 1, 5)
		if err == nil {
			return fmt.Errorf("invalid root accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherAllSizesAllRoots(t *testing.T) {
	for _, p := range worldSizes {
		for root := 0; root < p; root++ {
			p, root := p, root
			t.Run(fmt.Sprintf("p%d_root%d", p, root), func(t *testing.T) {
				err := Run(p, func(c *Comm) error {
					// Variable-size contributions (Gatherv semantics).
					mine := make([]int, c.Rank()+1)
					for i := range mine {
						mine[i] = c.Rank()
					}
					all, err := Gather(c, mine, root)
					if err != nil {
						return err
					}
					if c.Rank() != root {
						if all != nil {
							return fmt.Errorf("non-root rank %d got %v", c.Rank(), all)
						}
						return nil
					}
					if len(all) != p {
						return fmt.Errorf("len = %d", len(all))
					}
					for r := 0; r < p; r++ {
						if len(all[r]) != r+1 {
							return fmt.Errorf("rank %d entry has %d elems, want %d", r, len(all[r]), r+1)
						}
						for _, v := range all[r] {
							if v != r {
								return fmt.Errorf("rank %d entry contains %d", r, v)
							}
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestGatherInvalidRoot(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		_, err := Gather(c, 1, 5)
		if err == nil {
			return fmt.Errorf("invalid root accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceSum(t *testing.T) {
	for _, p := range worldSizes {
		p := p
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			want := p * (p - 1) / 2
			err := Run(p, func(c *Comm) error {
				got, err := Allreduce(c, c.Rank(), SumInt)
				if err != nil {
					return err
				}
				if got != want {
					return fmt.Errorf("rank %d: sum = %d, want %d", c.Rank(), got, want)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAllreduceMinMaxFloat(t *testing.T) {
	for _, p := range worldSizes {
		err := Run(p, func(c *Comm) error {
			v := float64(c.Rank()*7%5) - 2 // some spread with ties
			mn, err := Allreduce(c, v, minF64)
			if err != nil {
				return err
			}
			mx, err := Allreduce(c, v, maxF64)
			if err != nil {
				return err
			}
			wantMin, wantMax := 2.0, -2.0
			for r := 0; r < p; r++ {
				rv := float64(r*7%5) - 2
				wantMin = min(wantMin, rv)
				wantMax = max(wantMax, rv)
			}
			if mn != wantMin || mx != wantMax {
				return fmt.Errorf("p=%d rank %d: min=%v max=%v want %v %v", p, c.Rank(), mn, mx, wantMin, wantMax)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestAllreduceMinLocMaxLoc(t *testing.T) {
	// Values with duplicates: ties must resolve to the smallest index on
	// every rank identically (determinism of i_up/i_low selection).
	vals := []float64{5, -1, 3, -1, 7, 3, -1, 2, 9, 0, 4, -1, 8}
	for _, p := range worldSizes {
		if p > len(vals) {
			continue
		}
		err := Run(p, func(c *Comm) error {
			// Each rank owns a block; reduces its local best first.
			lo, hi := c.Rank()*len(vals)/p, (c.Rank()+1)*len(vals)/p
			local := ValLoc{Val: vals[lo], Loc: lo}
			localMax := local
			for i := lo + 1; i < hi; i++ {
				local = MinLoc(local, ValLoc{vals[i], i})
				localMax = MaxLoc(localMax, ValLoc{vals[i], i})
			}
			gmin, err := Allreduce(c, local, MinLoc)
			if err != nil {
				return err
			}
			gmax, err := Allreduce(c, localMax, MaxLoc)
			if err != nil {
				return err
			}
			if gmin.Val != -1 || gmin.Loc != 1 {
				return fmt.Errorf("p=%d min = %+v, want {-1 1}", p, gmin)
			}
			if gmax.Val != 9 || gmax.Loc != 8 {
				return fmt.Errorf("p=%d max = %+v, want {9 8}", p, gmax)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestAllreduceFloatDeterministicAcrossRanks(t *testing.T) {
	// All ranks must get bitwise identical sums even though fp addition is
	// not associative.
	for _, p := range []int{3, 5, 8, 13} {
		results := make([]float64, p)
		err := Run(p, func(c *Comm) error {
			v := 0.1 * float64(c.Rank()+1) // values with rounding behaviour
			s, err := Allreduce(c, v, SumF64)
			if err != nil {
				return err
			}
			results[c.Rank()] = s
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for r := 1; r < p; r++ {
			if results[r] != results[0] {
				t.Fatalf("p=%d: rank %d sum %v != rank 0 sum %v", p, r, results[r], results[0])
			}
		}
	}
}

func TestBarrier(t *testing.T) {
	for _, p := range worldSizes {
		// After a barrier, all pre-barrier sends must be observable.
		flags := make([]bool, p)
		err := Run(p, func(c *Comm) error {
			flags[c.Rank()] = true
			if err := Barrier(c); err != nil {
				return err
			}
			for r := 0; r < p; r++ {
				if !flags[r] {
					return fmt.Errorf("rank %d not past flag set after barrier", r)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestGather(t *testing.T) {
	for _, p := range worldSizes {
		root := p / 2
		err := Run(p, func(c *Comm) error {
			out, err := Gather(c, c.Rank()*c.Rank(), root)
			if err != nil {
				return err
			}
			if c.Rank() != root {
				if out != nil {
					return fmt.Errorf("non-root got %v", out)
				}
				return nil
			}
			for r := 0; r < p; r++ {
				if out[r] != r*r {
					return fmt.Errorf("out[%d] = %d", r, out[r])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestConsecutiveCollectivesDoNotCrossMatch(t *testing.T) {
	// A rank that races ahead into the next collective must not steal
	// messages from the previous one. Interleave many collectives of the
	// same kind with different values.
	err := Run(4, func(c *Comm) error {
		for i := 0; i < 100; i++ {
			got, err := Allreduce(c, c.Rank()+i*10, SumInt)
			if err != nil {
				return err
			}
			want := 6 + 40*i
			if got != want {
				return fmt.Errorf("iteration %d: %d, want %d", i, got, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// sizedInt is an int Carry payload.
type sizedInt int

func (sizedInt) ByteSize() int { return 8 }

func TestMixedCollectiveSequence(t *testing.T) {
	// The solver's pattern: one Carry Allreduce per iteration, over the
	// same slots, selects and delivers the working pair, a SumInt
	// Allreduce at each shrink check, Barrier + Gather for each
	// checkpoint, and a final Gather assembles the model. Exercise the
	// sequence under all sizes.
	type pair struct{ Up, Low Carry[sizedInt] }
	combine := func(dst, a, b *pair) {
		MinLocCarry(&dst.Up, &a.Up, &b.Up)
		MaxLocCarry(&dst.Low, &a.Low, &b.Low)
	}
	for _, p := range worldSizes {
		err := Run(p, func(c *Comm) error {
			r := c.Rank()
			slots := NewSlots[pair](c)
			for i := 0; i < 10; i++ {
				mine := Carry[sizedInt]{ValLoc: ValLoc{float64(r), r}, Data: sizedInt(100*i + r)}
				*slots.Operand() = pair{Up: mine, Low: mine}
				got, err := AllreduceSlots(c, slots, combine)
				if err != nil {
					return err
				}
				if got.Up.Loc != 0 || got.Up.Data != sizedInt(100*i) || got.Low.Loc != p-1 || got.Low.Data != sizedInt(100*i+p-1) {
					return fmt.Errorf("p=%d i=%d: pair %+v", p, i, got)
				}
				if i%3 == 2 {
					active, err := Allreduce(c, r+i, SumInt)
					if err != nil {
						return err
					}
					if want := p*(p-1)/2 + p*i; active != want {
						return fmt.Errorf("p=%d i=%d: shrink-check sum %d, want %d", p, i, active, want)
					}
				}
				if i%5 == 4 {
					if err := Barrier(c); err != nil {
						return err
					}
					if _, err := Gather(c, []float64{float64(i), float64(r)}, 0); err != nil {
						return err
					}
				}
			}
			blocks, err := Gather(c, r, 0)
			if err != nil {
				return err
			}
			for q := range blocks {
				if blocks[q] != q {
					return fmt.Errorf("p=%d: assembled block %d from rank %d", p, blocks[q], q)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestValLocOps(t *testing.T) {
	a := ValLoc{1, 5}
	b := ValLoc{1, 3}
	if got := MinLoc(a, b); got.Loc != 3 {
		t.Fatalf("MinLoc tie = %+v", got)
	}
	if got := MaxLoc(a, b); got.Loc != 3 {
		t.Fatalf("MaxLoc tie = %+v", got)
	}
	if got := MinLoc(ValLoc{0, 9}, ValLoc{1, 1}); got.Loc != 9 {
		t.Fatalf("MinLoc = %+v", got)
	}
	if got := MaxLoc(ValLoc{0, 9}, ValLoc{1, 1}); got.Loc != 1 {
		t.Fatalf("MaxLoc = %+v", got)
	}
}

// Property: Allreduce(min) equals the sequential min for random values and
// world sizes.
func TestAllreduceQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(12)
		vals := make([]float64, p)
		want := vals[0]
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		want = vals[0]
		for _, v := range vals[1:] {
			want = min(want, v)
		}
		ok := true
		err := Run(p, func(c *Comm) error {
			got, err := Allreduce(c, vals[c.Rank()], minF64)
			if err != nil {
				return err
			}
			if got != want {
				ok = false
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveVirtualTimeScalesLogarithmically(t *testing.T) {
	// An Allreduce of a scalar should cost O(log p) * alpha, not O(p).
	net := NetModel{Alpha: 1e-3, Beta: 0}
	cost := func(p int) float64 {
		times, err := RunTimed(p, Options{Net: net}, func(c *Comm) error {
			_, err := Allreduce(c, 1.0, SumF64)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return MaxTime(times)
	}
	c8, c64 := cost(8), cost(64)
	if c64 > 3*c8 {
		t.Fatalf("allreduce cost at p=64 (%v) vs p=8 (%v): worse than logarithmic", c64, c8)
	}
	if c64 <= c8 {
		t.Fatalf("allreduce cost should grow with p: %v vs %v", c8, c64)
	}
}

func BenchmarkAllreduceScalar(b *testing.B) {
	for _, p := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := Run(p, func(c *Comm) error {
					_, err := Allreduce(c, float64(c.Rank()), SumF64)
					return err
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBcast8KB(b *testing.B) {
	payload := make([]float64, 1024)
	for _, p := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := Run(p, func(c *Comm) error {
					_, err := Bcast(c, payload, 0)
					return err
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
