// Package batcher coalesces concurrent single-row predictions into batched
// model evaluations. A collector goroutine accumulates submitted rows and
// closes each window on whichever comes first: the batch filling to
// MaxBatch, or a wait deadline derived from MaxWait and the earliest
// request deadline in the window. Every admitted request is answered
// exactly once — a caller that gives up on its context still leaves its
// slot in the in-flight batch, whose buffered response channel absorbs the
// late answer, so nothing is ever dropped silently.
//
// The batcher resolves its model through a Source closure once per batch,
// so a whole batch executes against one model snapshot: a concurrent
// hot-reload publishes a new version for the next batch, never mid-batch.
package batcher

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/sparse"
)

var (
	// ErrQueueFull rejects a submission when the intake queue is at
	// capacity; callers translate it to an overload response.
	ErrQueueFull = errors.New("batcher: queue full")
	// ErrClosed rejects submissions after Close.
	ErrClosed = errors.New("batcher: closed")
	// ErrNoModel answers requests whose Source returned no model
	// (e.g. the model was removed between admission and execution).
	ErrNoModel = errors.New("batcher: no model")
)

// Source yields the model snapshot a batch executes against, plus its
// version. It is called once per batch, under no lock held by the caller.
type Source func() (*model.Model, uint64)

// Gate bounds concurrent batch executions (implemented by shed.Shedder).
type Gate interface {
	AcquireBatch(ctx context.Context) error
	ReleaseBatch()
}

// Config tunes a Batcher. The zero value is usable.
type Config struct {
	// MaxBatch closes a window when this many rows coalesced (default 32).
	MaxBatch int
	// MaxWait closes a window this long after its first row arrived
	// (default 2ms). A request with a context deadline tightens its
	// window to half the time it has left.
	MaxWait time.Duration
	// Queue bounds rows submitted and not yet answered — queued, windowed,
	// or executing (default 1024). Submissions past the bound are rejected
	// with ErrQueueFull.
	Queue int
	// Workers is passed to model.DecisionValuesRows per batch; 0 selects
	// GOMAXPROCS.
	Workers int
	// Gate, when non-nil, bounds concurrent batch executions.
	Gate Gate
	// OnBatch, when non-nil, observes every executed batch: coalesced
	// size, the oldest row's queue wait, and the execution time.
	OnBatch func(size int, queueWait, exec time.Duration)
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 2 * time.Millisecond
	}
	if c.Queue <= 0 {
		c.Queue = 1024
	}
	return c
}

// Result is one answered prediction: the decision value and the model
// snapshot the whole batch ran against, so a caller maps the decision to
// a label or probability with the model that computed it.
type Result struct {
	Decision float64
	Model    *model.Model
	Version  uint64
}

type response struct {
	res Result
	err error
}

type request struct {
	ctx  context.Context
	row  sparse.Row
	resc chan response // buffered(1): delivery never blocks on a gone caller
	enq  time.Time
}

// Batcher coalesces Predict calls. Create with New, stop with Close.
type Batcher struct {
	cfg Config
	src Source

	in   chan *request
	done chan struct{}

	mu     sync.RWMutex // fences Submit against Close
	closed bool

	loopWg sync.WaitGroup
	execWg sync.WaitGroup

	depth atomic.Int64 // rows submitted and not yet answered
}

// New starts a Batcher's collector goroutine.
func New(src Source, cfg Config) *Batcher {
	b := &Batcher{
		cfg:  cfg.withDefaults(),
		src:  src,
		done: make(chan struct{}),
	}
	b.in = make(chan *request, b.cfg.Queue)
	b.loopWg.Add(1)
	go func() {
		defer b.loopWg.Done()
		b.loop()
	}()
	return b
}

// QueueDepth returns the number of rows submitted and not yet answered —
// the load signal behind the svmserve_queue_depth gauge.
func (b *Batcher) QueueDepth() int64 { return b.depth.Load() }

// Predict submits one row and blocks for its answer. ErrQueueFull reports
// an intake queue at capacity (nothing was enqueued); ErrClosed a batcher
// shut down before submission. When ctx expires while waiting, Predict
// returns ctx.Err() immediately — the row still executes with its batch,
// and the late answer lands in the buffered channel instead of a caller.
func (b *Batcher) Predict(ctx context.Context, row sparse.Row) (Result, error) {
	r := &request{ctx: ctx, row: row, resc: make(chan response, 1), enq: time.Now()}
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return Result{}, ErrClosed
	}
	if b.depth.Add(1) > int64(b.cfg.Queue) {
		b.depth.Add(-1)
		b.mu.RUnlock()
		return Result{}, ErrQueueFull
	}
	select {
	case b.in <- r:
		b.mu.RUnlock()
	default:
		// Unreachable: the depth bound never exceeds the channel capacity,
		// so an admitted request always has a free slot.
		b.depth.Add(-1)
		b.mu.RUnlock()
		return Result{}, ErrQueueFull
	}
	select {
	case resp := <-r.resc:
		return resp.res, resp.err
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// Close drains the batcher: queued rows still execute, in-flight batches
// finish, then the collector exits. Subsequent Predict calls return
// ErrClosed. Close is idempotent and safe for concurrent use.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	b.mu.Unlock()
	close(b.done)
	b.loopWg.Wait()
	b.execWg.Wait()
}

// loop is the collector: it owns the open window and decides when to ship
// it.
func (b *Batcher) loop() {
	var (
		batch   []*request
		timer   *time.Timer
		timerC  <-chan time.Time
		closeAt time.Time
	)
	stopTimer := func() {
		if timer != nil {
			timer.Stop()
			timer = nil
			timerC = nil
		}
	}
	ship := func() {
		stopTimer()
		if len(batch) > 0 {
			b.startBatch(batch)
			batch = nil
		}
	}
	// tighten shrinks the open window for a request that cannot afford the
	// full MaxWait: it gets at most half its remaining deadline to wait
	// for co-riders. Returns false when the window must ship right now.
	tighten := func(r *request) bool {
		at := r.enq.Add(b.cfg.MaxWait)
		if dl, ok := r.ctx.Deadline(); ok {
			if budget := dl.Sub(r.enq) / 2; budget < b.cfg.MaxWait {
				at = r.enq.Add(budget)
			}
		}
		if closeAt.IsZero() || at.Before(closeAt) {
			closeAt = at
			d := time.Until(at)
			if d <= 0 {
				return false
			}
			stopTimer()
			timer = time.NewTimer(d)
			timerC = timer.C
		}
		return true
	}
	for {
		select {
		case <-b.done:
			ship()
			// Drain everything already queued; each row is still executed
			// (and answered), never dropped.
			for {
				select {
				case r := <-b.in:
					batch = append(batch, r)
					if len(batch) >= b.cfg.MaxBatch {
						ship()
					}
				default:
					ship()
					return
				}
			}
		case r := <-b.in:
			if len(batch) == 0 {
				closeAt = time.Time{}
			}
			batch = append(batch, r)
			if len(batch) >= b.cfg.MaxBatch || !tighten(r) {
				ship()
			}
		case <-timerC:
			timerC = nil
			ship()
		}
	}
}

// startBatch hands a closed window to an executor goroutine, so the
// collector keeps coalescing the next window while this one runs.
func (b *Batcher) startBatch(reqs []*request) {
	b.execWg.Add(1)
	go func() {
		defer b.execWg.Done()
		b.runBatch(reqs)
	}()
}

func (b *Batcher) runBatch(reqs []*request) {
	oldest := reqs[0].enq
	// Requests whose context expired while queued are answered with their
	// context error before any work is spent on them.
	live := make([]*request, 0, len(reqs))
	for _, r := range reqs {
		if err := r.ctx.Err(); err != nil {
			b.deliver(r, Result{}, err)
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	if g := b.cfg.Gate; g != nil {
		// Background context: a batch of admitted requests always runs.
		if err := g.AcquireBatch(context.Background()); err != nil {
			for _, r := range live {
				b.deliver(r, Result{}, err)
			}
			return
		}
		defer g.ReleaseBatch()
	}
	m, version := b.src()
	if m == nil {
		for _, r := range live {
			b.deliver(r, Result{}, ErrNoModel)
		}
		return
	}
	start := time.Now()
	rows := make([]sparse.Row, len(live))
	for i, r := range live {
		rows[i] = r.row
	}
	dv := m.DecisionValuesRows(rows, b.cfg.Workers)
	for i, r := range live {
		b.deliver(r, Result{Decision: dv[i], Model: m, Version: version}, nil)
	}
	if b.cfg.OnBatch != nil {
		b.cfg.OnBatch(len(live), start.Sub(oldest), time.Since(start))
	}
}

func (b *Batcher) deliver(r *request, res Result, err error) {
	r.resc <- response{res, err}
	b.depth.Add(-1)
}
