// Package shed implements admission control for the serving pipeline:
// a bounded queue-depth gate, a semaphore bounding concurrent batch
// executions, and deadline-aware rejection. A request whose estimated
// queue wait already exceeds its deadline is refused immediately with an
// explicit Overload error (mapped to HTTP 429 with Retry-After upstream) —
// under overload the system answers "not now" fast instead of timing out
// slowly, which is what keeps accepted-request tail latency bounded.
package shed

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// ErrOverloaded is the sentinel every admission rejection matches
// (errors.Is). The concrete error is *Overload, carrying the reason and a
// retry hint.
var ErrOverloaded = errors.New("shed: overloaded")

// Overload is an explicit admission rejection.
type Overload struct {
	// Reason is a small-cardinality label for metrics: "queue_full" or
	// "deadline".
	Reason string
	// RetryAfter estimates when capacity frees up; 0 means unknown.
	RetryAfter time.Duration
}

func (o *Overload) Error() string {
	return fmt.Sprintf("shed: overloaded (%s), retry after %v", o.Reason, o.RetryAfter)
}

// Is makes errors.Is(err, ErrOverloaded) true for every Overload.
func (o *Overload) Is(target error) bool { return target == ErrOverloaded }

// Config tunes a Shedder. The zero value is usable.
type Config struct {
	// MaxQueue bounds admitted-but-unfinished requests (default 1024).
	MaxQueue int
	// MaxInFlight bounds concurrently executing batches (default 2).
	MaxInFlight int
}

// ewmaAlpha is the smoothing factor of the per-row service-time estimate.
const ewmaAlpha = 0.2

func (c Config) withDefaults() Config {
	if c.MaxQueue <= 0 {
		c.MaxQueue = 1024
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2
	}
	return c
}

// Shedder is the admission controller. All methods are safe for concurrent
// use; the admit path is lock-free (atomics only).
type Shedder struct {
	cfg        Config
	depth      atomic.Int64 // admitted and not yet released
	inflight   chan struct{}
	perRowBits atomic.Uint64 // EWMA seconds per predicted row

	admitted atomic.Uint64
	shed     atomic.Uint64
}

// New builds a Shedder.
func New(cfg Config) *Shedder {
	cfg = cfg.withDefaults()
	return &Shedder{cfg: cfg, inflight: make(chan struct{}, cfg.MaxInFlight)}
}

// Admit decides whether to accept one request. On acceptance it returns a
// release function the caller must invoke exactly once when the request is
// answered. On rejection the error is an *Overload (errors.Is
// ErrOverloaded): either the queue is at capacity, or the caller's context
// deadline is closer than the estimated queue wait, in which case queueing
// the request would only convert a fast 429 into a slow timeout.
func (s *Shedder) Admit(ctx context.Context) (release func(), err error) {
	depth := s.depth.Add(1)
	if depth > int64(s.cfg.MaxQueue) {
		s.depth.Add(-1)
		s.shed.Add(1)
		return nil, &Overload{Reason: "queue_full", RetryAfter: s.estimatedWait()}
	}
	if dl, ok := ctx.Deadline(); ok {
		if wait := s.estimatedWait(); wait > 0 && time.Until(dl) < wait {
			s.depth.Add(-1)
			s.shed.Add(1)
			return nil, &Overload{Reason: "deadline", RetryAfter: wait}
		}
	}
	s.admitted.Add(1)
	var done atomic.Bool
	return func() {
		if done.CompareAndSwap(false, true) {
			s.depth.Add(-1)
		}
	}, nil
}

// AcquireBatch blocks until an in-flight batch slot frees up (or ctx is
// done). Batch executors acquire with context.Background(): a batch whose
// requests were already admitted always runs to completion.
func (s *Shedder) AcquireBatch(ctx context.Context) error {
	select {
	case s.inflight <- struct{}{}:
		return nil
	default:
	}
	select {
	case s.inflight <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ReleaseBatch frees an in-flight batch slot.
func (s *Shedder) ReleaseBatch() { <-s.inflight }

// ObserveBatch feeds one executed batch into the per-row service-time
// estimate.
func (s *Shedder) ObserveBatch(rows int, took time.Duration) {
	if rows <= 0 || took <= 0 {
		return
	}
	sample := took.Seconds() / float64(rows)
	for {
		old := s.perRowBits.Load()
		cur := math.Float64frombits(old)
		next := sample
		if cur > 0 {
			next = (1-ewmaAlpha)*cur + ewmaAlpha*sample
		}
		if s.perRowBits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// estimatedWait projects how long a newly queued request waits before its
// batch finishes: queued rows times the smoothed per-row service time,
// divided by the batch-slot parallelism.
func (s *Shedder) estimatedWait() time.Duration {
	perRow := math.Float64frombits(s.perRowBits.Load())
	if perRow <= 0 {
		return 0
	}
	depth := s.depth.Load()
	if depth < 0 {
		depth = 0
	}
	sec := float64(depth) * perRow / float64(s.cfg.MaxInFlight)
	return time.Duration(sec * float64(time.Second))
}

// QueueDepth returns the number of admitted, unreleased requests.
func (s *Shedder) QueueDepth() int64 { return s.depth.Load() }

// Stats returns cumulative admitted and shed request counts.
func (s *Shedder) Stats() (admitted, shed uint64) {
	return s.admitted.Load(), s.shed.Load()
}
