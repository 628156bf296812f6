package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestAbortWakesPollingReceiver: a receiver with no match polls the
// mailbox's put counter before it parks, so an abort that lands while it
// polls must end the poll too. Rank 0 aborts (or dies under the fault
// plan) right after rank 1 enters Recv, inside the poll budget.
func TestAbortWakesPollingReceiver(t *testing.T) {
	for trial := 0; trial < 100; trial++ {
		for _, crash := range []bool{false, true} {
			var ready atomic.Bool
			var recvErr error
			opts := Options{}
			if crash {
				// Rank 0's first send lands (a put that matches nothing),
				// its second kills the world.
				opts.Faults = FaultPlan{CrashRank: 0, CrashAtOp: 1}
			}
			_, err := RunTimed(2, opts, func(c *Comm) error {
				if c.Rank() == 1 {
					ready.Store(true)
					_, _, recvErr = c.Recv(0, 1)
					return nil
				}
				for !ready.Load() {
					runtime.Gosched()
				}
				if !crash {
					c.Abort()
					return nil
				}
				for {
					if err := c.Send(1, 2, trial); err != nil {
						return err
					}
				}
			})
			var rf *RankFailedError
			switch {
			case !crash && (err != nil || !errors.Is(recvErr, ErrAborted)):
				t.Fatalf("trial %d: Abort: run error %v, receiver got %v, want ErrAborted", trial, err, recvErr)
			case crash && !errors.Is(err, ErrInjectedCrash):
				t.Fatalf("trial %d: crash: run error %v, want ErrInjectedCrash", trial, err)
			case crash && (!errors.As(recvErr, &rf) || rf.Rank != 0):
				t.Fatalf("trial %d: crash: receiver got %v, want *RankFailedError for rank 0", trial, recvErr)
			}
		}
	}
}

// TestGetReleasesConsumedPayload: removing a message shifts the queue
// down one slot, and the vacated slot past the new end must not keep the
// payload alive (a ring block or a gathered model block).
func TestGetReleasesConsumedPayload(t *testing.T) {
	b := newMailbox()
	b.put(message{src: 0, tag: 1, data: []float64{1}})
	b.put(message{src: 0, tag: 2, data: []float64{2}})
	if _, err := b.get(0, 1); err != nil {
		t.Fatal(err)
	}
	if len(b.queue) != 1 || b.queue[0].tag != 2 {
		t.Fatalf("queue after get = %+v, want the tag-2 message", b.queue)
	}
	if vacated := b.queue[:2][1]; vacated.data != nil {
		t.Fatalf("vacated slot still holds payload %v", vacated.data)
	}
}

// TestAllreduceCarryOversubscribed runs more ranks than processors: with
// GOMAXPROCS(1) a polling receiver holds the one processor its sender
// needs until it yields or parks. Every one of a few thousand Carry
// Allreduces at p=6 must complete and match the sequential fold in rank
// order.
func TestAllreduceCarryOversubscribed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const p, rounds = 6, 3000
	err := Run(p, func(c *Comm) error {
		slots := NewSlots[Carry[sizedInt]](c)
		for round := 0; round < rounds; round++ {
			want := foldCarryOperands(round, p)
			*slots.Operand() = carryOperand(round, c.Rank())
			got, err := AllreduceSlots(c, slots, MinLocCarry[sizedInt])
			if err != nil {
				return err
			}
			if *got != want {
				return fmt.Errorf("round %d: got %+v, want %+v", round, *got, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// carryOperand is rank's Carry operand in round: small value and location
// ranges force ties, and the payload names the round and the rank.
func carryOperand(round, rank int) Carry[sizedInt] {
	v := ValLoc{Val: float64((round*7 + rank*13) % 5), Loc: (round + rank*3) % 11}
	return Carry[sizedInt]{ValLoc: v, Data: sizedInt(100*round + rank)}
}

// foldCarryOperands is the sequential MinLocCarry fold of round's
// operands in rank order.
func foldCarryOperands(round, p int) Carry[sizedInt] {
	want := carryOperand(round, 0)
	for r := 1; r < p; r++ {
		next := carryOperand(round, r)
		MinLocCarry(&want, &want, &next)
	}
	return want
}

// TestSlotLifetime pins the Slots lifetime rule: a result stays valid
// until the caller's next call on the same slots, although the other
// ranks race ahead into that call and fill their operands. One rank,
// a different one each round (at p = 3, 5 and 6 it is often a folded-out
// rank whose result lives in its neighbour's buffer), is delayed between
// calls. Each rank then fills its next operand and re-checks its previous
// result against the sequential fold, while faster ranks may already be
// inside the next call.
// Run it with -race: a write into a buffer some rank still reads is a
// race even when the values happen to agree.
func TestSlotLifetime(t *testing.T) {
	const rounds = 3000
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		for _, p := range []int{2, 3, 5, 6} {
			t.Run(fmt.Sprintf("GOMAXPROCS=%d/p=%d", procs, p), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				err := Run(p, func(c *Comm) error {
					slots := NewSlots[Carry[sizedInt]](c)
					var prev *Carry[sizedInt]
					for round := 0; round < rounds; round++ {
						if c.Rank() == round%p {
							for i := 0; i < 1+round%7; i++ {
								runtime.Gosched()
							}
						}
						*slots.Operand() = carryOperand(round, c.Rank())
						if round > 0 {
							if want := foldCarryOperands(round-1, p); *prev != want {
								return fmt.Errorf("round %d result changed before the next call: %+v, want %+v", round-1, *prev, want)
							}
						}
						got, err := AllreduceSlots(c, slots, MinLocCarry[sizedInt])
						if err != nil {
							return err
						}
						if want := foldCarryOperands(round, p); *got != want {
							return fmt.Errorf("round %d: got %+v, want %+v", round, *got, want)
						}
						prev = got
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// quad is BenchmarkAllreduceCarryP2's 32-byte Carry payload.
type quad [4]float64

func (quad) ByteSize() int { return 32 }

// BenchmarkAllreduceCarryP2 is a ping-pong: one op is one Carry Allreduce
// on two ranks over the same slots, a send and a matching receive on
// each, so ns/op is the in-process hand-off latency of one exchange.
func BenchmarkAllreduceCarryP2(b *testing.B) {
	b.ReportAllocs()
	err := Run(2, func(c *Comm) error {
		slots := NewSlots[Carry[quad]](c)
		for i := 0; i < b.N; i++ {
			*slots.Operand() = Carry[quad]{ValLoc: ValLoc{Val: float64(c.Rank()), Loc: c.Rank()}}
			if _, err := AllreduceSlots(c, slots, MinLocCarry[quad]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
