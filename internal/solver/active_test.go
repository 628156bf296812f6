package solver

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// activeSet returns a set of n samples with random labels and gradients,
// alphas at 0, inside the box and at the box (per-sample boxes when box is
// set), every seventh sample shrunk, and two random rows.
func activeSet(n int, box bool) (a *ActiveSet, rowU, rowL []float64) {
	rng := rand.New(rand.NewSource(int64(n)))
	a = &ActiveSet{Y: make([]float64, n), Alpha: make([]float64, n), Gamma: make([]float64, n), C: 1, Lo: 100}
	if box {
		a.Box = make([]float64, n)
	}
	rowU, rowL = make([]float64, n), make([]float64, n)
	for i := range a.Y {
		a.Y[i] = float64(1 - 2*rng.Intn(2))
		if box {
			a.Box[i] = 0.5 + rng.Float64()
		}
		a.Alpha[i] = []float64{0, a.BoxAt(i) / 2, a.BoxAt(i)}[rng.Intn(3)]
		a.Gamma[i] = rng.NormFloat64()
		rowU[i], rowL[i] = rng.Float64(), rng.Float64()
	}
	a.Reset()
	shrunk := func(i int) bool { return i%7 == 3 } // they keep their gamma
	for i := range a.Active {
		a.Active[i] = !shrunk(i)
	}
	a.Idx = slices.DeleteFunc(a.Idx, shrunk)
	return a, rowU, rowL
}

// TestGradientFanOutMatchesChunk: from minParallelGradient actives up,
// Update fans out across the workers, and every gradient, the compacted
// active list and flags, and the recorded violators must equal, bit for
// bit, what the serial sweep gives, with and without the Eq. 9 check and
// per-sample boxes. The serial sweep must equal the primitives applied
// sample by sample over the active flags, and after every Update the
// recorded violators must equal a full Scan of the survivors.
func TestGradientFanOutMatchesChunk(t *testing.T) {
	n := 2*minParallelGradient + 1001
	for _, box := range []bool{false, true} {
		for _, w := range []int{2, 3, 4} {
			par, rowU, rowL := activeSet(n, box)
			seq, _, _ := activeSet(n, box)
			ref, _, _ := activeSet(n, box)
			for k, step := range []float64{0.37, -1.25, 0.05} {
				shrink := k == 1
				if len(par.Idx) < minParallelGradient {
					t.Fatalf("%d actives, below the fan-out threshold", len(par.Idx))
				}
				par.Update(step, rowU, rowL, shrink, -0.8, 0.8, w)
				seq.Update(step, rowU, rowL, shrink, -0.8, 0.8, 1)
				ref.Idx = ref.Idx[:0]
				for i, on := range ref.Active {
					if !on {
						continue
					}
					ref.Gamma[i] += GradientDelta(step, rowU[i], rowL[i])
					if shrink && Shrinkable(Classify(ref.Y[i], ref.Alpha[i], ref.BoxAt(i)), ref.Gamma[i], -0.8, 0.8) {
						ref.Active[i] = false
						continue
					}
					ref.Idx = append(ref.Idx, i)
				}
				name := fmt.Sprintf("box %v, workers %d, update %d", box, w, k)
				sameSweep(t, name+": fan-out vs serial", par, seq)
				sameSweep(t, name+": serial vs sample by sample", seq, ref)
				if shrink && len(seq.Idx) == n-n/7 {
					t.Fatalf("%s: the Eq. 9 check eliminated nothing", name)
				}
				pu, pl := par.Violators()
				su, sl := seq.Violators()
				if pu != su || pl != sl {
					t.Fatalf("%s: recorded up %+v low %+v, the serial sweep records up %+v low %+v", name, pu, pl, su, sl)
				}
				if up, low := par.Scan(); up != pu || low != pl {
					t.Fatalf("%s: recorded up %+v low %+v, a scan finds up %+v low %+v", name, pu, pl, up, low)
				}
			}
		}
	}
}

// sameSweep fails unless got and want hold bit-equal gradients and the
// same active flags and list.
func sameSweep(t *testing.T, name string, got, want *ActiveSet) {
	t.Helper()
	for i := range want.Gamma {
		if math.Float64bits(got.Gamma[i]) != math.Float64bits(want.Gamma[i]) {
			t.Fatalf("%s: gamma[%d] = %v, want %v", name, i, got.Gamma[i], want.Gamma[i])
		}
	}
	if !slices.Equal(got.Idx, want.Idx) || !slices.Equal(got.Active, want.Active) {
		t.Fatalf("%s: %d actives, want %d", name, len(got.Idx), len(want.Idx))
	}
}

// BenchmarkGradientUpdate times one Eq. 2 gradient update over n active
// samples on the calling goroutine (serial) and split across GOMAXPROCS
// goroutines (fanout); the crossing sets minParallelGradient.
func BenchmarkGradientUpdate(b *testing.B) {
	w := runtime.GOMAXPROCS(0)
	for _, n := range []int{1 << 10, 1 << 12, 1 << 13, 1 << 14, 1 << 15, 1 << 16, 1 << 18} {
		a, rowU, rowL := activeSet(n, false)
		a.Reset()
		b.Run(fmt.Sprintf("n=%d/serial", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a.Update(1e-9, rowU, rowL, false, 0, 0, 1)
			}
		})
		b.Run(fmt.Sprintf("n=%d/fanout", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a.fanOut(w, 1e-9, rowU, rowL, false, 0, 0)
			}
		})
	}
}
