package mpi

import "fmt"

// nextCollTag reserves a tag for one collective operation. Collectives must
// be invoked in the same order on every rank (as in MPI), so the per-rank
// sequence numbers stay in lockstep and consecutive collectives cannot
// cross-match messages.
func (c *Comm) nextCollTag() int {
	tag := maxUserTag + c.collSeq%maxUserTag
	c.collSeq++
	return tag
}

func assertPayload[T any](c *Comm, data any, st Status) (T, error) {
	v, ok := data.(T)
	if !ok {
		var zero T
		return zero, fmt.Errorf("mpi: rank %d: collective payload type %T from rank %d, want %T", c.rank, data, st.Source, zero)
	}
	return v, nil
}

// Bcast broadcasts root's value to every rank using a binomial tree
// (ceil(log2 p) rounds, the O(log p) cost the paper assumes for
// distributing x_up and x_low each iteration). Every rank must call it;
// non-root input values are ignored.
func Bcast[T any](c *Comm, v T, root int) (T, error) {
	p := c.Size()
	if err := c.validRank(root); err != nil {
		var zero T
		return zero, err
	}
	tag := c.nextCollTag()
	if p == 1 {
		return v, nil
	}
	rel := (c.rank - root + p) % p
	mask := 1
	for mask < p {
		if rel&mask != 0 {
			src := (rel - mask + root) % p
			data, st, err := c.recv(src, tag)
			if err != nil {
				var zero T
				return zero, err
			}
			v, err = assertPayload[T](c, data, st)
			if err != nil {
				var zero T
				return zero, err
			}
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < p {
			dst := (rel + mask + root) % p
			if err := c.send(dst, tag, v); err != nil {
				var zero T
				return zero, err
			}
		}
	}
	return v, nil
}

// Slots is one rank's operand and partial-result buffers for
// AllreduceSlots over T. The caller writes its operand in place through
// Operand, and each round of the reduction sends only a pointer to the
// partial it holds, which boxes into an interface without allocating;
// the combine op writes every new partial into the next of the rank's own
// buffers. Slots belong to one rank's Comm and are not safe for
// concurrent use.
//
// Lifetime rule: calls alternate between two buffer sets by parity. The
// result of a call, which may point into another rank's slots, is valid
// and must not be written until the caller's next AllreduceSlots on the
// same slots. A rank rewrites a buffer set only two calls after it last
// used it, and it cannot get there before every rank has entered the call
// in between: no rank completes a reduction before every rank's operand
// has reached it. By then every rank has finished the call that read the
// set, including a folded-out rank of a non-power-of-two world that took
// its result from its neighbour's buffer.
type Slots[T any] struct {
	bufs  []T // two sets of stride buffers: the operand, then one per partial
	calls int
}

// NewSlots returns the buffers one rank of c needs for AllreduceSlots.
func NewSlots[T any](c *Comm) *Slots[T] {
	stride := 2 // the operand and the fold's partial
	for p2 := 1; p2 < c.Size(); p2 *= 2 {
		stride++ // one partial per doubling round
	}
	return &Slots[T]{bufs: make([]T, 2*stride)}
}

// set returns the buffer set of the next call; element 0 is its operand.
func (s *Slots[T]) set() []T {
	stride := len(s.bufs) / 2
	lo := (s.calls % 2) * stride
	return s.bufs[lo : lo+stride]
}

// Operand returns the buffer the caller fills before its next
// AllreduceSlots on s. The reduction reads it and leaves it unchanged.
func (s *Slots[T]) Operand() *T { return &s.set()[0] }

// elemBytes is the modeled size of the value a partial points at: its
// ByteSize when T has one, otherwise what PayloadBytes charges the value
// itself, never the nominal size of a pointer.
func elemBytes[T any](v *T) int {
	if sz, ok := any(v).(Sized); ok {
		return sz.ByteSize()
	}
	return PayloadBytes(*v)
}

// AllreduceSlots combines every rank's operand (s.Operand) with op and
// returns a pointer to the global result on every rank; see Slots for how
// long it stays valid. op(dst, a, b) stores the combination of *a and *b
// in *dst, which never aliases a or b; it must be commutative and
// associative. The implementation is recursive doubling with the standard
// pre/post phases for non-power-of-two worlds. The combine order is fixed
// (lower participant's partial on the left), so all ranks produce bitwise
// identical results even for floating-point sums. Each send is charged the
// size of the value, as if it were sent by value.
func AllreduceSlots[T any](c *Comm, s *Slots[T], op func(dst, a, b *T)) (*T, error) {
	p, rank := c.Size(), c.rank
	tag := c.nextCollTag()
	bufs := s.set()
	s.calls++
	v, next := &bufs[0], 1
	if p == 1 {
		return v, nil
	}
	p2 := 1
	for p2*2 <= p {
		p2 *= 2
	}
	rem := p - p2
	combine := func(a, b *T) *T {
		dst := &bufs[next]
		next++
		op(dst, a, b)
		return dst
	}

	// Fold the "extra" ranks into the power-of-two participant set:
	// among the first 2*rem ranks, evens hand their value to the odd
	// neighbour and sit out; odds and all ranks >= 2*rem participate.
	newRank := -1
	switch {
	case rank < 2*rem && rank%2 == 0:
		if err := c.sendSized(rank+1, tag, v, elemBytes(v)); err != nil {
			return nil, err
		}
	case rank < 2*rem: // odd
		data, st, err := c.recv(rank-1, tag)
		if err != nil {
			return nil, err
		}
		other, err := assertPayload[*T](c, data, st)
		if err != nil {
			return nil, err
		}
		v = combine(other, v) // lower rank's value on the left
		newRank = rank / 2
	default:
		newRank = rank - rem
	}

	oldRank := func(nr int) int {
		if nr < rem {
			return nr*2 + 1
		}
		return nr + rem
	}

	if newRank >= 0 {
		for mask := 1; mask < p2; mask <<= 1 {
			partnerNew := newRank ^ mask
			partner := oldRank(partnerNew)
			if err := c.sendSized(partner, tag, v, elemBytes(v)); err != nil {
				return nil, err
			}
			data, st, err := c.recv(partner, tag)
			if err != nil {
				return nil, err
			}
			other, err := assertPayload[*T](c, data, st)
			if err != nil {
				return nil, err
			}
			if newRank < partnerNew {
				v = combine(v, other)
			} else {
				v = combine(other, v)
			}
		}
	}

	// Return results to the folded-out even ranks, which keep a pointer
	// to their neighbour's buffer.
	switch {
	case rank < 2*rem && rank%2 == 0:
		data, st, err := c.recv(rank+1, tag)
		if err != nil {
			return nil, err
		}
		return assertPayload[*T](c, data, st)
	case rank < 2*rem: // odd
		if err := c.sendSized(rank-1, tag, v, elemBytes(v)); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// Allreduce combines one value per rank with op and returns the global
// result on every rank: AllreduceSlots over slots of its own, with the
// same messages, combine order and modeled bytes.
func Allreduce[T any](c *Comm, v T, op func(T, T) T) (T, error) {
	s := NewSlots[T](c)
	*s.Operand() = v
	r, err := AllreduceSlots(c, s, func(dst, a, b *T) { *dst = op(*a, *b) })
	if err != nil {
		var zero T
		return zero, err
	}
	return *r, nil
}

// Barrier blocks until every rank has entered it (dissemination algorithm,
// ceil(log2 p) rounds).
func Barrier(c *Comm) error {
	p, rank := c.Size(), c.rank
	tag := c.nextCollTag()
	for dist := 1; dist < p; dist *= 2 {
		dst := (rank + dist) % p
		src := (rank - dist%p + p) % p
		if _, _, err := c.sendrecv(dst, tag, struct{}{}, src, tag); err != nil {
			return err
		}
	}
	return nil
}

// Gather collects one value per rank at root (indexed by rank); other
// ranks receive nil. Linear algorithm: fine for the model-assembly step it
// serves, which runs once per training.
func Gather[T any](c *Comm, v T, root int) ([]T, error) {
	p, rank := c.Size(), c.rank
	if err := c.validRank(root); err != nil {
		return nil, err
	}
	tag := c.nextCollTag()
	if rank != root {
		return nil, c.send(root, tag, v)
	}
	out := make([]T, p)
	out[rank] = v
	for i := 0; i < p-1; i++ {
		data, st, err := c.recv(AnySource, tag)
		if err != nil {
			return nil, err
		}
		out[st.Source], err = assertPayload[T](c, data, st)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ValLoc pairs a value with a global index for MINLOC/MAXLOC reductions,
// which the solver uses to find the worst KKT violators i_up and i_low.
type ValLoc struct {
	Val float64
	Loc int
}

// ByteSize implements Sized for the time model.
func (ValLoc) ByteSize() int { return 16 }

// MinLoc returns the argument with the smaller value; ties break toward
// the smaller index, which keeps the solver's pair selection deterministic
// and independent of the process count.
func MinLoc(a, b ValLoc) ValLoc {
	if minLocTakes(a, b) {
		return b
	}
	return a
}

// MaxLoc returns the argument with the larger value; ties break toward the
// smaller index.
func MaxLoc(a, b ValLoc) ValLoc {
	if maxLocTakes(a, b) {
		return b
	}
	return a
}

func minLocTakes(a, b ValLoc) bool { return b.Val < a.Val || (b.Val == a.Val && b.Loc < a.Loc) }
func maxLocTakes(a, b ValLoc) bool { return b.Val > a.Val || (b.Val == a.Val && b.Loc < a.Loc) }

// Carry is a MINLOC/MAXLOC operand with a payload riding along: the
// reduction compares only the ValLoc, and the winner's Data travels with
// it, so one Allreduce both selects an element and delivers it to every
// rank (the solver's working pair, instead of a hop through a root and a
// broadcast).
type Carry[T Sized] struct {
	ValLoc
	Data T
}

// ByteSize implements Sized: the ValLoc plus the payload's size. The
// payload reports its own size, so a send does not box it into an
// interface to ask.
func (c Carry[T]) ByteSize() int { return 16 + c.Data.ByteSize() }

// MinLocCarry stores in dst the MinLoc of a and b with its payload. On an
// exact ValLoc tie the left operand wins, which AllreduceSlots makes the
// lower ranks' partial, so the result matches a sequential fold in rank
// order.
func MinLocCarry[T Sized](dst, a, b *Carry[T]) {
	if minLocTakes(a.ValLoc, b.ValLoc) {
		*dst = *b
	} else {
		*dst = *a
	}
}

// MaxLocCarry is MaxLoc over Carry operands, with MinLocCarry's tie rule.
func MaxLocCarry[T Sized](dst, a, b *Carry[T]) {
	if maxLocTakes(a.ValLoc, b.ValLoc) {
		*dst = *b
	} else {
		*dst = *a
	}
}

// SumF64 and SumInt are the sum operators for Allreduce.
func SumF64(a, b float64) float64 { return a + b }

// SumInt returns the sum of two ints.
func SumInt(a, b int) int { return a + b }
