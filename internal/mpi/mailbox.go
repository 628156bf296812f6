package mpi

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// pollBudget is how many times a receiver re-reads the put counter before
// it parks on the condition variable, and pollYield how often within that
// budget it yields the processor, so the sender can run when there are
// more ranks than GOMAXPROCS. Parking costs a futex sleep and wake per
// message. On a 2-vCPU x86-64 host the budget spins for about 45 us, and
// 99.8% of the receives of a p=2 core training on 416 cod-rna rows
// waited less than 32 us; budgets from 2048 to 16384 polls all cut
// BenchmarkTrainCodrnaP2 from about 12.5 to 6-7 us per iteration. Longer
// waits (a reconstruction ring, a checkpoint write) still end in a park
// rather than a burned core.
const (
	pollBudget = 8192
	pollYield  = 32
)

// message is an in-flight point-to-point message.
type message struct {
	src     int
	tag     int
	data    any
	bytes   int
	arrival float64 // virtual time at which the payload is available
}

// mailbox is one rank's unbounded receive queue with MPI matching
// semantics: Recv(src, tag) consumes the oldest message whose source and
// tag match, where AnySource/AnyTag act as wildcards. Messages from a given
// (source, tag) pair are delivered in send order (MPI's non-overtaking
// rule) because the queue is scanned front to back.
type mailbox struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []message
	abortErr error // non-nil once the world aborted; returned by get

	// puts counts puts and aborts. It changes under mu, and a receiver
	// with no match polls it outside mu before parking on cond.
	puts atomic.Uint64
}

func newMailbox() *mailbox {
	b := &mailbox{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func matches(m *message, src, tag int) bool {
	if src != AnySource && m.src != src {
		return false
	}
	if tag != AnyTag && m.tag != tag {
		return false
	}
	return true
}

// put enqueues a message and wakes blocked receivers.
func (b *mailbox) put(m message) {
	b.mu.Lock()
	b.queue = append(b.queue, m)
	b.puts.Add(1)
	b.mu.Unlock()
	// Broadcast rather than Signal: receivers match selectively, so the
	// woken waiter is not necessarily the one this message satisfies.
	b.cond.Broadcast()
}

// get blocks until a matching message arrives (or the world aborts) and
// removes it from the queue. With no match it first polls the put counter
// for up to pollBudget reads, then parks on cond.
func (b *mailbox) get(src, tag int) (message, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		for i := range b.queue {
			if matches(&b.queue[i], src, tag) {
				m := b.queue[i]
				last := len(b.queue) - 1
				copy(b.queue[i:], b.queue[i+1:])
				b.queue[last] = message{} // drop the payload reference
				b.queue = b.queue[:last]
				return m, nil
			}
		}
		if b.abortErr != nil {
			return message{}, b.abortErr
		}
		seen := b.puts.Load()
		b.mu.Unlock()
		b.poll(seen)
		b.mu.Lock()
		// A put or abort after the poll gave up must take mu, so it
		// cannot slip between this check and Wait.
		if b.puts.Load() == seen {
			b.cond.Wait()
		}
	}
}

// poll spins until the put counter moves off seen or the budget runs out.
func (b *mailbox) poll(seen uint64) {
	for i := 1; i <= pollBudget; i++ {
		if b.puts.Load() != seen {
			return
		}
		if i%pollYield == 0 {
			runtime.Gosched()
		}
	}
}

// abort unblocks all current and future receivers with err (typically
// ErrAborted, or a *RankFailedError naming the dead peer).
func (b *mailbox) abort(err error) {
	b.mu.Lock()
	b.abortErr = err
	b.puts.Add(1)
	b.mu.Unlock()
	b.cond.Broadcast()
}
