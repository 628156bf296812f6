package mpi

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
)

// world is the shared state behind one Run invocation.
type world struct {
	size  int
	boxes []*mailbox
	net   NetModel
	plan  FaultPlan

	abortOnce sync.Once

	// fault injection (tests): sendFaults[rank] > 0 means that rank's
	// sends start failing after that many successful sends. Both maps are
	// nil unless Options.SendFaults names a rank; sendFaults is fixed
	// before the ranks start, so the empty case needs no lock.
	faultMu    sync.Mutex
	sendFaults map[int]int
	sendCounts map[int]int
}

func newWorld(size int, net NetModel) *world {
	w := &world{
		size:  size,
		boxes: make([]*mailbox, size),
		net:   net,
	}
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	return w
}

func (w *world) abort() { w.abortWith(ErrAborted) }

// abortWith terminates the world once, propagating err to every blocked and
// future receive on every rank. The first abort wins.
func (w *world) abortWith(err error) {
	w.abortOnce.Do(func() {
		for _, b := range w.boxes {
			b.abort(err)
		}
	})
}

// kill marks rank as failed: all other ranks' pending and future blocked
// operations return a *RankFailedError naming it, so survivors error out
// cleanly instead of deadlocking in Recv.
func (w *world) kill(rank int) {
	w.abortWith(&RankFailedError{Rank: rank})
}

func (w *world) checkFault(rank int) error {
	if w.sendFaults == nil {
		return nil
	}
	w.faultMu.Lock()
	defer w.faultMu.Unlock()
	limit, ok := w.sendFaults[rank]
	if !ok {
		return nil
	}
	w.sendCounts[rank]++
	if w.sendCounts[rank] > limit {
		return fmt.Errorf("mpi: injected send fault on rank %d", rank)
	}
	return nil
}

// Comm is one rank's handle on the world. It is confined to the goroutine
// running that rank and is not safe for concurrent use.
type Comm struct {
	w       *world
	rank    int
	clock   float64 // virtual seconds
	collSeq int     // per-rank collective sequence number (stays in lockstep)

	// counters for stats and for the fault plan's operation count
	sends, recvs int
	sentBytes    int64
}

// Rank returns this process's rank in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.w.size }

// Compute advances the rank's virtual clock by d seconds of local work.
func (c *Comm) Compute(d float64) {
	if d > 0 {
		c.clock += d
	}
}

// Sends returns the number of point-to-point sends (tests, stats).
func (c *Comm) Sends() int { return c.sends }

// SentBytes returns the total modeled payload bytes sent by this rank.
func (c *Comm) SentBytes() int64 { return c.sentBytes }

func (c *Comm) validRank(r int) error {
	if r < 0 || r >= c.w.size {
		return fmt.Errorf("mpi: rank %d out of range [0,%d)", r, c.w.size)
	}
	return nil
}

// Send delivers data to dst with the given tag. The payload is transferred
// by reference; the sender must not mutate it afterwards. Under the time
// model the sender is charged Alpha + bytes*Beta and the message becomes
// available to the receiver at the sender's post-send clock.
func (c *Comm) Send(dst, tag int, data any) error {
	if err := c.validRank(dst); err != nil {
		return err
	}
	if tag < 0 || tag >= maxUserTag {
		return fmt.Errorf("mpi: user tag %d out of range [0,%d)", tag, maxUserTag)
	}
	return c.send(dst, tag, data)
}

// send is the internal path shared with collectives (which use reserved
// tags above maxUserTag).
func (c *Comm) send(dst, tag int, data any) error {
	return c.sendSized(dst, tag, data, PayloadBytes(data))
}

// sendSized is send with the modeled size n given by the caller: a
// collective that sends a pointer to a rank-owned buffer charges the size
// of the value it points at.
func (c *Comm) sendSized(dst, tag int, data any, n int) error {
	if err := c.w.checkFault(c.rank); err != nil {
		return err
	}
	if err := c.checkCrash(); err != nil {
		return err
	}
	c.clock += c.w.net.Cost(n)
	c.sends++
	c.sentBytes += int64(n)
	c.w.boxes[dst].put(message{src: c.rank, tag: tag, data: data, bytes: n, arrival: c.clock})
	return nil
}

// Recv blocks until a message matching (src, tag) arrives and returns its
// payload. src may be AnySource and tag may be AnyTag.
func (c *Comm) Recv(src, tag int) (any, Status, error) {
	if src != AnySource {
		if err := c.validRank(src); err != nil {
			return nil, Status{}, err
		}
	}
	return c.recv(src, tag)
}

func (c *Comm) recv(src, tag int) (any, Status, error) {
	if err := c.checkCrash(); err != nil {
		return nil, Status{}, err
	}
	m, err := c.w.boxes[c.rank].get(src, tag)
	if err != nil {
		return nil, Status{}, err
	}
	if m.arrival > c.clock {
		c.clock = m.arrival
	}
	c.recvs++
	return m.data, Status{Source: m.src, Tag: m.tag, Bytes: m.bytes}, nil
}

// Request represents a pending nonblocking operation (Isend/Irecv).
type Request struct {
	wait   func() (any, Status, error)
	done   bool
	data   any
	status Status
	err    error
}

// Wait completes the operation, caching the result.
func (r *Request) Wait() (any, Status, error) {
	if !r.done {
		r.data, r.status, r.err = r.wait()
		r.done = true
		r.wait = nil
	}
	return r.data, r.status, r.err
}

// Data returns the received payload after Wait (nil for sends).
func (r *Request) Data() any { return r.data }

// Isend starts a nonblocking send. Because mailboxes are unbounded the send
// completes immediately; the returned request exists so ring exchanges can
// be written exactly like their MPI counterparts (Isend/Irecv/Waitall).
func (c *Comm) Isend(dst, tag int, data any) *Request {
	err := c.Send(dst, tag, data)
	return &Request{done: true, err: err}
}

// Irecv posts a nonblocking receive; the matching happens at Wait time.
func (c *Comm) Irecv(src, tag int) *Request {
	return &Request{wait: func() (any, Status, error) { return c.Recv(src, tag) }}
}

// Waitall waits for every request and returns the first error encountered.
func Waitall(reqs ...*Request) error {
	var first error
	for _, r := range reqs {
		if _, _, err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// sendrecv sends then receives, as in the lockstep steps of the
// recursive-doubling and dissemination collectives (reserved tags). It is
// deadlock-free regardless of ordering because sends never block.
func (c *Comm) sendrecv(dst, sendTag int, data any, src, recvTag int) (any, Status, error) {
	if err := c.send(dst, sendTag, data); err != nil {
		return nil, Status{}, err
	}
	return c.recv(src, recvTag)
}

// Abort terminates the world: all blocked operations on every rank return
// ErrAborted. Run still waits for all rank functions to return.
func (c *Comm) Abort() { c.w.abort() }

// checkCrash enforces the fault plan on the rank's point-to-point paths
// (collectives are built on them, so they are covered too). When the
// crashing rank reaches its scheduled operation it kills the world — every
// other rank's blocked and future operations return *RankFailedError — and
// dies with ErrInjectedCrash. Ops are counted per rank as sends + completed
// receives, making the crash point deterministic for a deterministic
// program.
func (c *Comm) checkCrash() error {
	p := &c.w.plan
	if p.CrashAtOp <= 0 || c.rank != p.CrashRank {
		return nil
	}
	if int64(c.sends+c.recvs) >= p.CrashAtOp {
		c.w.kill(c.rank)
		return fmt.Errorf("%w: rank %d at op %d", ErrInjectedCrash, c.rank, c.sends+c.recvs)
	}
	return nil
}

// FaultPlan is a deterministic fault-injection schedule for one Run. The
// zero value injects nothing.
type FaultPlan struct {
	// CrashRank dies when its cumulative point-to-point operation count
	// (sends + receives) reaches CrashAtOp. CrashAtOp <= 0 disables the
	// crash. The kill aborts the world so surviving ranks observe a
	// *RankFailedError instead of deadlocking.
	CrashRank int
	CrashAtOp int64
}

// Enabled reports whether the plan injects any fault.
func (p FaultPlan) Enabled() bool {
	return p.CrashAtOp > 0
}

// Options configures a Run invocation.
type Options struct {
	Net NetModel
	// SendFaults maps rank -> number of successful sends before that
	// rank's sends begin to fail. Used by failure-injection tests.
	SendFaults map[int]int
	// Faults is the deterministic fault-injection plan (a rank crash)
	// applied to this run.
	Faults FaultPlan
}

// Run executes fn on p ranks, each in its own goroutine, and returns the
// combined error. A panic in any rank is converted to an error and aborts
// the world so other ranks unblock. Virtual end times per rank are
// discarded; use RunTimed to collect them.
func Run(p int, fn func(*Comm) error) error {
	_, err := RunTimed(p, Options{}, fn)
	return err
}

// RunTimed executes fn on p ranks under the given options and returns each
// rank's final virtual clock.
func RunTimed(p int, opts Options, fn func(*Comm) error) ([]float64, error) {
	if p <= 0 {
		return nil, fmt.Errorf("mpi: world size must be positive, got %d", p)
	}
	w := newWorld(p, opts.Net)
	w.plan = opts.Faults
	if w.plan.CrashAtOp > 0 && (w.plan.CrashRank < 0 || w.plan.CrashRank >= p) {
		return nil, fmt.Errorf("mpi: fault plan crash rank %d out of range [0,%d)", w.plan.CrashRank, p)
	}
	if len(opts.SendFaults) > 0 {
		w.sendFaults = make(map[int]int, len(opts.SendFaults))
		w.sendCounts = make(map[int]int, len(opts.SendFaults))
		for r, f := range opts.SendFaults {
			w.sendFaults[r] = f
		}
	}
	comms := make([]*Comm, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	wg.Add(p)
	for r := 0; r < p; r++ {
		comms[r] = &Comm{w: w, rank: r}
		go func(r int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					errs[r] = &rankError{rank: r, err: fmt.Errorf("panic: %v\n%s", rec, debug.Stack())}
					w.abort()
				}
			}()
			if err := fn(comms[r]); err != nil {
				errs[r] = &rankError{rank: r, err: err}
				w.abort()
			}
		}(r)
	}
	wg.Wait()
	times := make([]float64, p)
	for r := range comms {
		times[r] = comms[r].clock
	}
	var all []error
	for _, e := range errs {
		if e != nil {
			all = append(all, e)
		}
	}
	return times, errors.Join(all...)
}

// MaxTime returns the maximum of a RunTimed result: the modeled makespan.
func MaxTime(times []float64) float64 {
	var m float64
	for _, t := range times {
		if t > m {
			m = t
		}
	}
	return m
}
