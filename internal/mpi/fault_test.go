package mpi

import (
	"errors"
	"testing"
)

// TestKilledRankUnblocksReceivers is the regression test for the mailbox
// deadlock: before abort propagation carried the failure, a rank blocked in
// Recv on a dead peer hung forever. Now every survivor must unblock with a
// *RankFailedError naming the dead rank.
func TestKilledRankUnblocksReceivers(t *testing.T) {
	const p = 4
	const victim = 2
	rankErrs := make([]error, p)
	_, err := RunTimed(p, Options{Faults: FaultPlan{CrashRank: victim, CrashAtOp: 1}}, func(c *Comm) error {
		if c.Rank() == victim {
			// First op completes (op count below CrashAtOp), the next one
			// dies at the op boundary.
			if err := c.Send(0, 1, 1.0); err != nil {
				rankErrs[c.Rank()] = err
				return err
			}
			_, _, err := c.Recv(0, 99)
			rankErrs[c.Rank()] = err
			return err
		}
		// Survivors block on a message nobody ever sends.
		_, _, err := c.Recv(AnySource, 7)
		rankErrs[c.Rank()] = err
		return err
	})
	if err == nil {
		t.Fatal("run with an injected crash reported success")
	}
	if !errors.Is(rankErrs[victim], ErrInjectedCrash) {
		t.Fatalf("victim error = %v, want ErrInjectedCrash", rankErrs[victim])
	}
	for r := 0; r < p; r++ {
		if r == victim {
			continue
		}
		var rf *RankFailedError
		if !errors.As(rankErrs[r], &rf) {
			t.Fatalf("rank %d error = %v, want *RankFailedError", r, rankErrs[r])
		}
		if rf.Rank != victim {
			t.Fatalf("rank %d blames rank %d, want %d", r, rf.Rank, victim)
		}
		if !errors.Is(rankErrs[r], ErrAborted) {
			t.Fatalf("rank %d error %v does not unwrap to ErrAborted", r, rankErrs[r])
		}
	}
}

// TestKilledRankUnblocksWaitall covers the nonblocking path: pending Irecv
// requests completed through Waitall must also observe the failure.
func TestKilledRankUnblocksWaitall(t *testing.T) {
	const p = 3
	const victim = 0
	rankErrs := make([]error, p)
	_, err := RunTimed(p, Options{Faults: FaultPlan{CrashRank: victim, CrashAtOp: 1}}, func(c *Comm) error {
		if c.Rank() == victim {
			if err := c.Send(1, 1, 1.0); err != nil {
				rankErrs[c.Rank()] = err
				return err
			}
			_, _, err := c.Recv(1, 99)
			rankErrs[c.Rank()] = err
			return err
		}
		// Two pending receives that can never be satisfied, resolved via
		// Waitall as in the solver's ring exchange.
		r1 := c.Irecv(AnySource, 8)
		r2 := c.Irecv(AnySource, 9)
		err := Waitall(r1, r2)
		rankErrs[c.Rank()] = err
		return err
	})
	if err == nil {
		t.Fatal("run with an injected crash reported success")
	}
	for r := 1; r < p; r++ {
		var rf *RankFailedError
		if !errors.As(rankErrs[r], &rf) || rf.Rank != victim {
			t.Fatalf("rank %d Waitall error = %v, want *RankFailedError{Rank: %d}", r, rankErrs[r], victim)
		}
	}
}

// TestKilledRankUnblocksCollectives checks that a crash inside a collective
// (which is built on the same point-to-point paths) propagates too.
func TestKilledRankUnblocksCollectives(t *testing.T) {
	const p = 4
	rankErrs := make([]error, p)
	_, err := RunTimed(p, Options{Faults: FaultPlan{CrashRank: 3, CrashAtOp: 2}}, func(c *Comm) error {
		for i := 0; i < 100; i++ {
			if _, err := Allreduce(c, float64(c.Rank()), SumF64); err != nil {
				rankErrs[c.Rank()] = err
				return err
			}
		}
		return nil
	})
	if err == nil {
		t.Fatal("collective loop with an injected crash reported success")
	}
	if !errors.Is(rankErrs[3], ErrInjectedCrash) {
		t.Fatalf("victim error = %v, want ErrInjectedCrash", rankErrs[3])
	}
	for r := 0; r < 3; r++ {
		if rankErrs[r] == nil {
			t.Fatalf("rank %d finished 100 allreduces despite a dead peer", r)
		}
		if !errors.Is(rankErrs[r], ErrAborted) {
			t.Fatalf("rank %d error %v does not unwrap to ErrAborted", r, rankErrs[r])
		}
	}
}

func TestFaultPlanBadRankRejected(t *testing.T) {
	_, err := RunTimed(2, Options{Faults: FaultPlan{CrashRank: 5, CrashAtOp: 1}}, func(c *Comm) error {
		return nil
	})
	if err == nil {
		t.Fatal("out-of-range crash rank accepted")
	}
}
