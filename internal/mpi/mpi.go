// Package mpi is a message-passing runtime that stands in for the Message
// Passing Interface used by the paper's implementation.
//
// Each "process" is a goroutine holding a Comm handle (its rank). The
// package reproduces the MPI primitives the paper's solver relies on:
//
//   - MPI_Send / MPI_Recv      -> Comm.Send / Comm.Recv (tag and source
//     matching, including AnySource / AnyTag)
//   - MPI_Isend / MPI_Irecv /
//     MPI_Waitall              -> Comm.Isend / Comm.Irecv / Waitall, used by
//     the ring exchange in gradient reconstruction (Algorithm 3)
//   - MPI_Allreduce            -> AllreduceSlots (recursive doubling,
//     any p, over rank-owned Slots), used once per iteration for
//     beta_up/beta_low (min/maxloc over Carry operands, which also
//     deliver x_up and x_low), and its value form Allreduce, used at
//     shrink checks for the subsequent shrinking threshold (sum)
//   - MPI_Gather               -> Gather (linear, at a root), used to
//     collect checkpoint state and assemble the final support-vector set
//   - MPI_Barrier              -> Barrier (dissemination), which fences
//     each coordinated checkpoint
//   - MPI_Bcast                -> Bcast (binomial tree, O(log p) rounds);
//     the solver no longer calls it, since the Carry Allreduce delivers
//     x_up and x_low
//
// Because ranks share an address space, message payloads are passed by
// reference, and every buffer has one owner, the rank that writes it. A
// reduction's operands and partials live in Slots the rank owns: it
// writes only its own buffers and sends pointers to them, and a buffer is
// written again only when no rank can still be reading it (see Slots for
// the rule). Other payloads, such as the CSR blocks of the reconstruction
// ring, are immutable once sent. The modeled size of a message is that of
// the value sent, not of the pointer that carries it.
//
// A receive whose message has not arrived polls the rank's mailbox (an
// atomic put counter, read outside the lock) for a bounded budget before
// it parks on a condition variable, the way shared-memory MPI transports
// hand off between processes on one node: at p=2 the partner's message
// usually lands within one iteration's compute, and a park and wake per
// message would cost more than the iteration. The poller yields the
// processor every few dozen reads, so worlds larger than GOMAXPROCS still
// progress. Matching (source, tag, wildcards, per-pair send order) is the
// same whether the receiver polled or parked.
//
// Every rank additionally carries a virtual clock advanced by Comm.Compute
// and by message transfers under a Hockney alpha-beta network model
// (NetModel). With a zero NetModel the clock degenerates to pure compute
// accounting. The perfmodel package uses the same constants analytically;
// the runtime clock lets integration tests cross-check the analytic model
// against an executed schedule.
package mpi

import (
	"errors"
	"fmt"
)

// AnySource matches messages from any rank in Recv/Irecv.
const AnySource = -1

// AnyTag matches messages with any user tag in Recv/Irecv.
const AnyTag = -1

// maxUserTag bounds user-visible tags; larger tags are reserved for
// collectives.
const maxUserTag = 1 << 30

// ErrAborted is returned by blocked operations when another rank fails.
var ErrAborted = errors.New("mpi: world aborted")

// ErrInjectedCrash marks an operation that failed because the fault plan
// crashed this rank (FaultPlan.CrashRank at FaultPlan.CrashAtOp).
var ErrInjectedCrash = errors.New("mpi: injected crash")

// RankFailedError is the error surviving ranks observe when a peer dies:
// every blocked or future Recv/Waitall/collective on every other rank
// returns it instead of deadlocking. It unwraps to ErrAborted so existing
// errors.Is(err, ErrAborted) checks keep working.
type RankFailedError struct {
	Rank int // the rank that failed
}

func (e *RankFailedError) Error() string {
	return fmt.Sprintf("mpi: rank %d failed, world aborted", e.Rank)
}

// Unwrap lets errors.Is(err, ErrAborted) match a rank failure.
func (e *RankFailedError) Unwrap() error { return ErrAborted }

// Status describes a received message.
type Status struct {
	Source int
	Tag    int
	Bytes  int
}

// NetModel is a Hockney-style point-to-point cost model: transferring n
// bytes costs Alpha + n*Beta seconds of virtual time. The zero value
// disables communication cost accounting.
type NetModel struct {
	Alpha float64 // per-message latency, seconds
	Beta  float64 // per-byte transfer time, seconds (1/bandwidth)
}

// FDR returns constants approximating the InfiniBand FDR fabric of the
// PNNL Cascade system used in the paper: ~1.5us latency, ~6.8 GB/s
// effective per-link bandwidth.
func FDR() NetModel {
	return NetModel{Alpha: 1.5e-6, Beta: 1.0 / 6.8e9}
}

// Cost returns the modeled transfer time for n bytes.
func (nm NetModel) Cost(n int) float64 {
	return nm.Alpha + float64(n)*nm.Beta
}

// Sized lets payload types report their transfer size to the time model.
type Sized interface {
	ByteSize() int
}

// PayloadBytes estimates the on-wire size of a payload for the time model.
// Common solver payload types are handled exactly; types implementing Sized
// report themselves; anything else is charged a nominal 64 bytes.
func PayloadBytes(v any) int {
	switch x := v.(type) {
	case nil:
		return 0
	case Sized:
		return x.ByteSize()
	case []float64:
		return 8 * len(x)
	case []float32:
		return 4 * len(x)
	case []int:
		return 8 * len(x)
	case []int64:
		return 8 * len(x)
	case []int32:
		return 4 * len(x)
	case []int8:
		return len(x)
	case []byte:
		return len(x)
	case float64, float32, int, int64, int32, uint64:
		return 8
	case bool, int8, uint8:
		return 1
	case string:
		return len(x)
	default:
		return 64
	}
}

// rankError annotates an error with the rank it occurred on.
type rankError struct {
	rank int
	err  error
}

func (e *rankError) Error() string { return fmt.Sprintf("mpi: rank %d: %v", e.rank, e.err) }
func (e *rankError) Unwrap() error { return e.err }
