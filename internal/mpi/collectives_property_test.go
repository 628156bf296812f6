package mpi

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestAllreduceLocPropertyVsSequential is a quick-check style property test
// for the collectives the solver's pair selection depends on: for random
// world sizes, random per-rank values (including ties, infinities, and
// duplicate locations), Allreduce MINLOC/MAXLOC must agree on every rank
// with a plain sequential fold in rank order. The operators break value
// ties toward the smaller location, which makes them genuinely commutative
// and associative — that is what entitles recursive doubling to combine in
// any bracketing, and what this test would catch regressing. Each trial
// runs real goroutine ranks, so the Go scheduler provides the randomized
// interleavings; the expected result is scheduling-independent.
func TestAllreduceLocPropertyVsSequential(t *testing.T) {
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		p := 1 + rng.Intn(9) // world sizes 1..9 cover non-powers of two
		vals := make([]ValLoc, p)
		for i := range vals {
			// Small value range forces frequent ties; occasional +/-Inf
			// exercises the extremes the solver's betaUp/betaLow scans hit.
			v := float64(rng.Intn(5) - 2)
			switch rng.Intn(10) {
			case 0:
				v = math.Inf(1)
			case 1:
				v = math.Inf(-1)
			}
			vals[i] = ValLoc{Val: v, Loc: rng.Intn(6)} // duplicate locs likely
		}

		wantMin, wantMax := vals[0], vals[0]
		for _, v := range vals[1:] {
			wantMin = MinLoc(wantMin, v)
			wantMax = MaxLoc(wantMax, v)
		}

		gotMin := make([]ValLoc, p)
		gotMax := make([]ValLoc, p)
		err := Run(p, func(c *Comm) error {
			mn, err := Allreduce(c, vals[c.Rank()], MinLoc)
			if err != nil {
				return err
			}
			mx, err := Allreduce(c, vals[c.Rank()], MaxLoc)
			if err != nil {
				return err
			}
			gotMin[c.Rank()] = mn
			gotMax[c.Rank()] = mx
			return nil
		})
		if err != nil {
			t.Fatalf("trial %d (p=%d): %v", trial, p, err)
		}
		for r := 0; r < p; r++ {
			if gotMin[r] != wantMin {
				t.Errorf("trial %d (p=%d, vals=%v): MINLOC on rank %d = %+v, want %+v",
					trial, p, vals, r, gotMin[r], wantMin)
			}
			if gotMax[r] != wantMax {
				t.Errorf("trial %d (p=%d, vals=%v): MAXLOC on rank %d = %+v, want %+v",
					trial, p, vals, r, gotMax[r], wantMax)
			}
		}
	}
}

// TestBcastPropertyVsReference checks that Bcast delivers the root's exact
// payload to every rank for random world sizes, roots, and payload shapes
// (the binomial tree takes different paths for every (p, root) pair), and
// that a chain of collectives after the broadcast still lines up — the
// per-rank collective sequence numbers must stay in lockstep.
func TestBcastPropertyVsReference(t *testing.T) {
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(5000 + trial)))
		p := 1 + rng.Intn(9)
		root := rng.Intn(p)
		payload := make([]float64, 1+rng.Intn(8))
		for i := range payload {
			payload[i] = rng.NormFloat64()
		}

		var mu sync.Mutex
		got := make(map[int][]float64, p)
		sums := make([]float64, p)
		err := Run(p, func(c *Comm) error {
			in := []float64{math.NaN()} // non-root input must be ignored
			if c.Rank() == root {
				in = payload
			}
			out, err := Bcast(c, in, root)
			if err != nil {
				return err
			}
			mu.Lock()
			got[c.Rank()] = out
			mu.Unlock()
			// Follow-up collective over the broadcast data: every rank
			// contributes the same first element, so the sum is p*payload[0].
			s, err := Allreduce(c, out[0], SumF64)
			if err != nil {
				return err
			}
			sums[c.Rank()] = s
			return nil
		})
		if err != nil {
			t.Fatalf("trial %d (p=%d, root=%d): %v", trial, p, root, err)
		}
		for r := 0; r < p; r++ {
			out := got[r]
			if len(out) != len(payload) {
				t.Fatalf("trial %d (p=%d, root=%d): rank %d got %d values, want %d",
					trial, p, root, r, len(out), len(payload))
			}
			for i := range payload {
				if out[i] != payload[i] {
					t.Errorf("trial %d (p=%d, root=%d): rank %d element %d = %v, want %v",
						trial, p, root, r, i, out[i], payload[i])
				}
			}
			want := float64(p) * payload[0]
			if math.Abs(sums[r]-want) > 1e-12*math.Max(1, math.Abs(want)) {
				t.Errorf("trial %d (p=%d, root=%d): follow-up sum on rank %d = %v, want %v",
					trial, p, root, r, sums[r], want)
			}
		}
	}
}

// TestAllreduceCarryPropertyVsSequential checks the payload-carrying
// MINLOC/MAXLOC operators the solver's pair selection reduces with, at
// every world size 1..9: each rank must receive the winner and its
// payload exactly as a sequential fold in rank order produces them. Small
// value ranges force value ties (broken toward the smaller Loc) and
// duplicate locations with different payloads (the lower rank's wins).
// payload is TestAllreduceCarryPropertyVsSequential's Carry payload.
type payload struct{ rank, loc int }

func (payload) ByteSize() int { return 16 }

func TestAllreduceCarryPropertyVsSequential(t *testing.T) {
	for p := 1; p <= 9; p++ {
		for trial := 0; trial < 20; trial++ {
			rng := rand.New(rand.NewSource(int64(9000 + 100*p + trial)))
			vals := make([]Carry[payload], p)
			for r := range vals {
				v := ValLoc{Val: float64(rng.Intn(3) - 1), Loc: rng.Intn(2 * p)}
				if rng.Intn(8) == 0 {
					v = ValLoc{Val: math.Inf(1 - 2*rng.Intn(2)), Loc: -1} // an empty side
				}
				vals[r] = Carry[payload]{ValLoc: v, Data: payload{rank: r, loc: v.Loc}}
			}
			wantMin, wantMax := vals[0], vals[0]
			for i := range vals[1:] {
				MinLocCarry(&wantMin, &wantMin, &vals[i+1])
				MaxLocCarry(&wantMax, &wantMax, &vals[i+1])
			}
			for _, v := range vals {
				if v.Val < wantMin.Val || v.Val == wantMin.Val && v.Loc < wantMin.Loc {
					t.Fatalf("p=%d trial %d: min fold picked %+v over %+v", p, trial, wantMin, v)
				}
				if v.Val > wantMax.Val || v.Val == wantMax.Val && v.Loc < wantMax.Loc {
					t.Fatalf("p=%d trial %d: max fold picked %+v over %+v", p, trial, wantMax, v)
				}
			}

			gotMin := make([]Carry[payload], p)
			gotMax := make([]Carry[payload], p)
			err := Run(p, func(c *Comm) error {
				reduce := func(op func(dst, a, b *Carry[payload])) (Carry[payload], error) {
					s := NewSlots[Carry[payload]](c)
					*s.Operand() = vals[c.Rank()]
					r, err := AllreduceSlots(c, s, op)
					if err != nil {
						return Carry[payload]{}, err
					}
					return *r, nil
				}
				mn, err := reduce(MinLocCarry[payload])
				if err != nil {
					return err
				}
				mx, err := reduce(MaxLocCarry[payload])
				gotMin[c.Rank()], gotMax[c.Rank()] = mn, mx
				return err
			})
			if err != nil {
				t.Fatalf("p=%d trial %d: %v", p, trial, err)
			}
			for r := 0; r < p; r++ {
				if gotMin[r] != wantMin || gotMax[r] != wantMax {
					t.Errorf("p=%d trial %d (vals=%v): rank %d got min %+v max %+v, want %+v %+v",
						p, trial, vals, r, gotMin[r], gotMax[r], wantMin, wantMax)
				}
			}
		}
	}
}
