package mpi

import "sync"

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
	b.mu.Unlock()
	// Broadcast rather than Signal: receivers match selectively, so the
	// woken waiter is not necessarily the one this message satisfies.
	b.cond.Broadcast()
}

// get blocks until a matching message arrives (or the world aborts) and
// removes it from the queue.
func (b *mailbox) get(src, tag int) (message, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		for i := range b.queue {
			if matches(&b.queue[i], src, tag) {
				m := b.queue[i]
				b.queue = append(b.queue[:i], b.queue[i+1:]...)
				return m, nil
			}
		}
		if b.abortErr != nil {
			return message{}, b.abortErr
		}
		b.cond.Wait()
	}
}

// abort unblocks all current and future receivers with err (typically
// ErrAborted, or a *RankFailedError naming the dead peer).
func (b *mailbox) abort(err error) {
	b.mu.Lock()
	b.abortErr = err
	b.mu.Unlock()
	b.cond.Broadcast()
}
