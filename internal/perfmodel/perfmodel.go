// Package perfmodel evaluates the cost of a recorded training run
// (trace.Trace) on a modeled cluster for an arbitrary process count.
//
// This is the substitution for the paper's 4096-core PNNL Cascade testbed:
// since the distributed solver computes the same iterate sequence for any
// p (verified by the core package's tests), the only thing p changes is
// who computes what and what gets communicated — which this package
// evaluates analytically from the trace, using the same Hockney alpha-beta
// constants as the runtime clock in internal/mpi and a per-kernel-eval
// compute cost lambda calibrated on the host. The absolute numbers are
// machine-dependent by construction; the scaling *shape* (the content of
// Figures 3-8) is what the model reproduces.
//
// Cost formulas mirror the collective algorithms in internal/mpi:
//
//	Allreduce (rec. doubling): (floor(log2 p) + 2*[p not power of 2]) * (alpha + n*beta)
//	Reconstruction ring:       p * alpha + totalBytes * beta  (bandwidth bound,
//	                           as in the paper's Section IV-B2 analysis)
package perfmodel

import (
	"fmt"
	"math"

	"repro/internal/kernel"
	"repro/internal/mpi"
	"repro/internal/sparse"
	"repro/internal/trace"
	"time"
)

// Machine models one cluster configuration: the interconnect and the
// per-kernel-evaluation compute cost for a particular dataset.
type Machine struct {
	Net mpi.NetModel
	// Lambda is the paper's symbol for the average time of one kernel
	// evaluation on this dataset, seconds.
	Lambda float64
	// RowBytes is the average wire size of one CSR sample row
	// (12 bytes per stored entry + row metadata).
	RowBytes float64
}

// Cascade returns a Machine with the paper's testbed interconnect
// (InfiniBand FDR) and the given calibrated compute parameters.
func Cascade(lambda, avgNNZ float64) Machine {
	return Machine{Net: mpi.FDR(), Lambda: lambda, RowBytes: RowBytes(avgNNZ)}
}

// RowBytes converts an average row length into wire bytes: 4 bytes of
// column index and 8 bytes of value per entry, plus 16 bytes of metadata.
func RowBytes(avgNNZ float64) float64 { return 12*avgNNZ + 16 }

// Calibrate measures lambda for a dataset on the current host and returns
// the Cascade-interconnect machine for it. budget bounds measurement time.
// Lambda is measured through the batched dense-scratch row path — the path
// every solver hot loop executes — so projections track the real
// per-evaluation cost.
func Calibrate(params kernel.Params, x *sparse.Matrix, budget time.Duration) Machine {
	ev := kernel.NewEvaluator(params, x)
	return Cascade(ev.LambdaBatched(budget), x.AvgRowNNZ())
}

// log2Floor returns floor(log2 p) for p >= 1.
func log2Floor(p int) int {
	n := -1
	for v := p; v > 0; v >>= 1 {
		n++
	}
	return n
}

// AllreduceCost models recursive doubling over p ranks with the extra
// fold/unfold rounds for non-powers of two.
func AllreduceCost(net mpi.NetModel, p int, bytes float64) float64 {
	if p <= 1 {
		return 0
	}
	rounds := log2Floor(p)
	if p&(p-1) != 0 {
		rounds += 2
	}
	return float64(rounds) * (net.Alpha + bytes*net.Beta)
}

// RingCost models the Algorithm 3 ring exchange: p latency-bound steps plus
// the bandwidth term for moving totalBytes once around the ring
// (Theta(|X - A'| * G) in the paper's notation).
func RingCost(net mpi.NetModel, p int, totalBytes float64) float64 {
	if p <= 1 {
		return 0
	}
	return float64(p)*net.Alpha + totalBytes*net.Beta
}

// Breakdown is the modeled cost of a run at one process count.
type Breakdown struct {
	P int
	// Compute is gradient-update and pair kernel time on the critical path.
	Compute float64
	// ReduceComm is the per-iteration selection Allreduce (which also
	// delivers x_up and x_low) plus the shrink-threshold Allreduce at
	// shrink events.
	ReduceComm float64
	// ReconCompute / ReconComm split the Algorithm 3 cost.
	ReconCompute float64
	ReconComm    float64
}

// Total returns the modeled wall time in seconds.
func (b Breakdown) Total() float64 {
	return b.Compute + b.ReduceComm + b.ReconCompute + b.ReconComm
}

// ReconFraction is the Figure 8 quantity: the share of total time spent in
// gradient reconstruction.
func (b Breakdown) ReconFraction() float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return (b.ReconCompute + b.ReconComm) / t
}

// Evaluate models a recorded run on p processes of machine m.
func Evaluate(tr *trace.Trace, p int, m Machine) (Breakdown, error) {
	if p < 1 {
		return Breakdown{}, fmt.Errorf("perfmodel: p must be >= 1, got %d", p)
	}
	if tr == nil || tr.N == 0 || len(tr.Segments) == 0 {
		return Breakdown{}, fmt.Errorf("perfmodel: empty trace")
	}
	b := Breakdown{P: p}

	// One Allreduce per iteration selects the pair and delivers it: two
	// ValLocs, each carrying its sample (a row plus four scalars). The
	// second-order rule adds a MAXLOC Allreduce carrying one sample.
	half := m.RowBytes + 32
	perIterReduce := AllreduceCost(m.Net, p, 32+2*half)
	if tr.WSS == "second-order" {
		perIterReduce += AllreduceCost(m.Net, p, 16+half)
	}

	for si, s := range tr.Segments {
		end := tr.Iterations
		if si+1 < len(tr.Segments) {
			end = tr.Segments[si+1].FromIter
		}
		iters := float64(end - s.FromIter)
		if iters <= 0 {
			continue
		}
		perRank := math.Ceil(float64(s.Active) / float64(p))
		b.Compute += iters * m.Lambda * (3 + 2*perRank)
		b.ReduceComm += iters * perIterReduce
	}

	// Shrink checks each add one scalar Allreduce (the subsequent
	// threshold). Traces that predate check counting fall back to the
	// segment count.
	checks := float64(tr.ShrinkChecks)
	if checks == 0 {
		checks = float64(len(tr.Segments) - 1 - len(tr.Recons))
	}
	if checks > 0 {
		b.ReduceComm += checks * AllreduceCost(m.Net, p, 8)
	}

	for _, r := range tr.Recons {
		perRankTargets := math.Ceil(float64(r.Shrunk) / float64(p))
		b.ReconCompute += m.Lambda * perRankTargets * float64(r.SVs)
		b.ReconComm += RingCost(m.Net, p, float64(r.SVs)*m.RowBytes)
		b.ReconComm += 2 * AllreduceCost(m.Net, p, 8)
	}
	return b, nil
}

// EvaluateBaseline models the libsvm-enhanced baseline (a W-thread
// shared-memory SMO) running the recorded schedule: per iteration the pair
// kernels (3 evaluations) plus the gradient update over the active set
// split across W threads, plus any gradient reconstructions. No kernel
// cache is credited: at full dataset size the Theta(N^2) kernel matrix
// dwarfs a node's memory and the hit probability collapses — the paper's
// Section III-A2 argument — so the uncached cost is the faithful model at
// the sizes the figures are drawn for.
func EvaluateBaseline(tr *trace.Trace, workers int, m Machine) (float64, error) {
	if workers < 1 {
		return 0, fmt.Errorf("perfmodel: workers must be >= 1, got %d", workers)
	}
	if tr == nil || tr.N == 0 || len(tr.Segments) == 0 {
		return 0, fmt.Errorf("perfmodel: empty trace")
	}
	var total float64
	tr.EachSegment(func(active int, iters int64) {
		perIter := 3 + 2*math.Ceil(float64(active)/float64(workers))
		total += float64(iters) * m.Lambda * perIter
	})
	for _, r := range tr.Recons {
		total += m.Lambda * math.Ceil(float64(r.Shrunk)/float64(workers)) * float64(r.SVs)
	}
	return total, nil
}

// PowersOfTwo returns {from, 2*from, ..., to} (both must be powers of two).
func PowersOfTwo(from, to int) []int {
	var out []int
	for p := from; p <= to; p *= 2 {
		out = append(out, p)
	}
	return out
}
