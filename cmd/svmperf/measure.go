package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method), so
// the spreads this program reports match the ones computed from its output.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := min(max(i*m/n, 1), len(s)-1)
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// percentile returns the p-quantile (0 < p < 1) of xs by the nearest-rank
// rule.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// The machine this benchmark runs on shares its cores with other tenants,
// and their load slows every CPU-bound call in phases of seconds to tens
// of seconds: the same training call measured 65 ms in one phase and
// 120 ms in the next, with process CPU time equal to wall time in both.
// The mean speed of a 20 s run varied by a quarter between runs, so no
// statistic over a run's own samples can remove the effect. The speed
// probe measures it instead: fixed loops that use nothing from the
// repository, run just before every timed round, whose duration relative
// to its nominal value is the slowdown the round ran under. CPU-bound
// end-to-end times are reported as the mean of their samples over the
// mean of the run's speed factors ("speed-adjusted"); the raw times are
// kept in the -out record, and their medians are reported per layer.
//
// The mean, not the median: single calls fall into two modes (the
// in-memory linear call took either about 1.9 or about 3.3 ms) and the
// share in each mode shifts from run to run, so the median jumps between
// modes where the mean moves in proportion. Over four sets of ten runs the
// mean's spread across seeds was at most 7% of its median, the median's
// 17%.
//
// The probe has two parts because the calls feel contention differently:
// a factor weights the compute loop by w and the ping-pong by 1-w
// (geometrically), and each workload sets the w its calls follow. Over
// three sets of ten runs, paper-codrna's calls (416 rows that stay in the
// core's caches) tracked the compute loop alone: with w = 1 its set
// medians agreed within 0.1% (core) and 2.8% (smo), against 3.6% and 6.2%
// with the geometric mean. The kernel-cache calls, which stream kernel
// rows, did best at w = 0.75, and the out-of-core calls and every set-up at
// the geometric mean, w = 0.5.

// Nominal durations of the two probe loops on an idle core of the machine
// the bounds were set on (Xeon, 2 vCPUs under KVM), so that adjusted times
// read as that machine's uncontended times.
const (
	computeNominal  = time.Millisecond
	pingPongNominal = time.Millisecond
)

const (
	refL1Len  = 4 << 10  // floats: 32 KiB, core-local
	refMemLen = 64 << 10 // floats: 512 KiB, streamed from the outer caches
)

type refBuffers struct {
	l1, mem []float64
	sink    float64
}

var refPool = sync.Pool{New: func() any {
	b := &refBuffers{l1: make([]float64, refL1Len), mem: make([]float64, refMemLen)}
	for i := range b.l1 {
		b.l1[i] = math.Sin(float64(i)) / 2
	}
	for i := range b.mem {
		b.mem[i] = math.Cos(float64(i))
	}
	return b
}}

// computeLoop runs fixed floating-point work once and returns its
// duration: a Gaussian-kernel-like exp-of-squared-distance sweep over
// core-local data plus a strided pass over a buffer larger than the core's
// own caches.
func computeLoop(b *refBuffers) time.Duration {
	t := time.Now()
	s := 0.0
	for rep := 0; rep < 90; rep++ {
		for i := 0; i+8 <= refL1Len; i += 8 {
			d := 0.0
			for k := 0; k < 8; k++ {
				x := b.l1[i+k] - b.l1[(i+k*64+rep)&(refL1Len-1)]
				d += x * x
			}
			s += math.Exp(-d)
		}
	}
	for rep := 0; rep < 12; rep++ {
		for i := rep; i < refMemLen; i += 4 {
			s += b.mem[i]
		}
	}
	b.sink += s
	return time.Since(t)
}

// pingPong hands a value back and forth between two goroutines a fixed
// number of times, with a little arithmetic per hop, and returns how long
// that took: the wake-up and hand-off path the mpi ranks run on.
func pingPong() time.Duration {
	const hops = 900
	a, b := make(chan float64), make(chan float64)
	done := make(chan struct{})
	t := time.Now()
	go func() {
		defer close(done)
		for i := 0; i < hops; i++ {
			v := <-a
			for k := 0; k < 20; k++ {
				v = math.Exp(-v / 2)
			}
			b <- v
		}
	}()
	v := 0.5
	for i := 0; i < hops; i++ {
		a <- v
		v = <-b
	}
	<-done
	return time.Since(t)
}

// speed is one probe reading: how much slower than nominal each loop ran,
// 1 when the machine is uncontended, about 1.8 when neighbours share the
// cores.
type speed struct {
	Compute float64 `json:"compute"`
	Handoff float64 `json:"handoff"`
}

// factor combines the two parts, the compute loop weighted by w.
func (s speed) factor(w float64) float64 {
	return math.Pow(s.Compute, w) * math.Pow(s.Handoff, 1-w)
}

// probeSpeed reads the machine's speed now. The compute loop runs three
// times on each of GOMAXPROCS goroutines at once.
func probeSpeed() speed {
	procs := runtime.GOMAXPROCS(0)
	var total time.Duration
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := refPool.Get().(*refBuffers)
			defer refPool.Put(b)
			var sum time.Duration
			for k := 0; k < 3; k++ {
				sum += computeLoop(b)
			}
			mu.Lock()
			total += sum
			mu.Unlock()
		}()
	}
	wg.Wait()
	return speed{
		Compute: float64(total) / float64(3*procs) / float64(computeNominal),
		Handoff: float64(pingPong()) / float64(pingPongNominal),
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(max(1, len(xs)))
}

func meanFactor(speeds []speed, w float64) float64 {
	var s float64
	for _, sp := range speeds {
		s += sp.factor(w)
	}
	return s / float64(max(1, len(speeds)))
}

// liveHeap is the heap the last collection marked reachable, in MiB.
func liveHeap() float64 {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

const liveHeapMetric = "/gc/heap/live:bytes"

// heapSampler polls the live heap every few milliseconds until stop is
// called, which returns the largest value seen in MiB: the peak including
// what calls hold while they run. It reads runtime/metrics, which does not
// stop the world, so sampling does not perturb request latencies.
func heapSampler() (stop func() float64) {
	const name = liveHeapMetric
	done := make(chan struct{})
	var peak uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := []metrics.Sample{{Name: name}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		wg.Wait()
		return float64(peak) / (1 << 20)
	}
}

// gcSnapshot is the garbage collector's cumulative work at one instant.
type gcSnapshot struct {
	auto  uint64        // collections the runtime started by itself
	pause time.Duration // total stop-the-world pause, forced collections included
}

func readGC() gcSnapshot {
	s := []metrics.Sample{{Name: "/gc/cycles/automatic:gc-cycles"}}
	metrics.Read(s)
	var st debug.GCStats
	debug.ReadGCStats(&st)
	return gcSnapshot{auto: s[0].Value.Uint64(), pause: st.PauseTotal}
}

// cpuTime returns the CPU time the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
