package mpi

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestSendRecvBasic(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			return c.Send(1, 42, []float64{1, 2, 3})
		case 1:
			data, st, err := c.Recv(0, 42)
			if err != nil {
				return err
			}
			if st.Source != 0 || st.Tag != 42 || st.Bytes != 24 {
				return fmt.Errorf("status = %+v", st)
			}
			if v, ok := data.([]float64); !ok || len(v) != 3 || v[2] != 3 {
				return fmt.Errorf("payload = %v", data)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvAnySourceAnyTag(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		if c.Rank() != 0 {
			return c.Send(0, c.Rank()*10, c.Rank())
		}
		seen := map[int]bool{}
		for i := 0; i < 2; i++ {
			data, st, err := c.Recv(AnySource, AnyTag)
			if err != nil {
				return err
			}
			v := data.(int)
			if st.Tag != v*10 || st.Source != v {
				return fmt.Errorf("mismatched status %+v for %d", st, v)
			}
			seen[v] = true
		}
		if !seen[1] || !seen[2] {
			return fmt.Errorf("missing senders: %v", seen)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagSelectiveMatching(t *testing.T) {
	// Rank 0 sends tag 2 before tag 1; rank 1 receives tag 1 first.
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 2, "second"); err != nil {
				return err
			}
			return c.Send(1, 1, "first")
		}
		a, _, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		b, _, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		if a.(string) != "first" || b.(string) != "second" {
			return fmt.Errorf("got %q, %q", a, b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNonOvertakingSameTag(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		const n = 50
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := c.Send(1, 7, i); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			v, _, err := c.Recv(0, 7)
			if err != nil {
				return err
			}
			if v.(int) != i {
				return fmt.Errorf("out of order: got %d at position %d", v, i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIsendIrecvWaitall(t *testing.T) {
	// The ring pattern from Algorithm 3: everyone sends right, receives left.
	const p = 5
	err := Run(p, func(c *Comm) error {
		right := (c.Rank() + 1) % p
		left := (c.Rank() - 1 + p) % p
		sreq := c.Isend(right, 9, c.Rank())
		rreq := c.Irecv(left, 9)
		if err := Waitall(sreq, rreq); err != nil {
			return err
		}
		got, ok := rreq.Data().(int)
		if !ok || got != left {
			return fmt.Errorf("rank %d received %v, want %d", c.Rank(), rreq.Data(), left)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPairwiseExchangeNoDeadlock(t *testing.T) {
	// Pairwise exchange where both sides send first would deadlock with
	// synchronous sends; ours must not. Allreduce and Barrier step this way.
	err := Run(2, func(c *Comm) error {
		other := 1 - c.Rank()
		v, _, err := c.sendrecv(other, 3, c.Rank(), other, 3)
		if err != nil {
			return err
		}
		if v.(int) != other {
			return fmt.Errorf("got %v", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInvalidRanksAndTags(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		if err := c.Send(5, 0, 1); err == nil {
			return errors.New("send to invalid rank succeeded")
		}
		if err := c.Send(-1, 0, 1); err == nil {
			return errors.New("send to negative rank succeeded")
		}
		if err := c.Send(1, -3, 1); err == nil {
			return errors.New("negative user tag accepted")
		}
		if err := c.Send(1, maxUserTag, 1); err == nil {
			return errors.New("reserved tag accepted")
		}
		if _, _, err := c.Recv(9, 0); err == nil {
			return errors.New("recv from invalid rank succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestErrorAbortsBlockedRanks(t *testing.T) {
	// Rank 1 blocks forever on a receive that never comes; rank 0 errors.
	// Run must return rather than deadlock.
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return errors.New("boom")
		}
		_, _, err := c.Recv(0, 1)
		if !errors.Is(err, ErrAborted) {
			return fmt.Errorf("blocked recv returned %v, want ErrAborted", err)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestPanicBecomesError(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 2 {
			panic("kaboom")
		}
		// Other ranks block; the abort must unblock them.
		_, _, err := c.Recv(2, 0)
		if errors.Is(err, ErrAborted) {
			return nil
		}
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want kaboom panic surfaced", err)
	}
}

func TestSendFaultInjection(t *testing.T) {
	opts := Options{SendFaults: map[int]int{0: 2}}
	_, err := RunTimed(2, opts, func(c *Comm) error {
		if c.Rank() != 0 {
			for {
				if _, _, err := c.Recv(0, 1); err != nil {
					return nil // aborted, fine
				}
			}
		}
		for i := 0; i < 5; i++ {
			if err := c.Send(1, 1, i); err != nil {
				if i != 2 {
					return fmt.Errorf("fault at send %d, want 2", i)
				}
				return err
			}
		}
		return errors.New("no injected fault")
	})
	if err == nil || !strings.Contains(err.Error(), "injected send fault") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunRejectsNonPositiveSize(t *testing.T) {
	if err := Run(0, func(*Comm) error { return nil }); err == nil {
		t.Fatal("Run(0) succeeded")
	}
	if err := Run(-3, func(*Comm) error { return nil }); err == nil {
		t.Fatal("Run(-3) succeeded")
	}
}

func TestCounters(t *testing.T) {
	// Receives count toward the fault plan's operation count: rank 1's
	// receive is its first op, so the send after it is op 1 and crashes.
	_, err := RunTimed(2, Options{Faults: FaultPlan{CrashRank: 1, CrashAtOp: 1}}, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 1, []float64{1, 2}); err != nil {
				return err
			}
			if c.Sends() != 1 || c.SentBytes() != 16 {
				return fmt.Errorf("sends=%d bytes=%d", c.Sends(), c.SentBytes())
			}
			return nil
		}
		if _, _, err := c.Recv(0, 1); err != nil {
			return fmt.Errorf("receive before the crash point failed: %w", err)
		}
		return c.Send(0, 2, 0)
	})
	if !errors.Is(err, ErrInjectedCrash) || !strings.Contains(err.Error(), "at op 1") {
		t.Fatalf("err = %v, want an injected crash at op 1", err)
	}
}

func TestVirtualClockPointToPoint(t *testing.T) {
	net := NetModel{Alpha: 1e-3, Beta: 1e-6}
	times, err := RunTimed(2, Options{Net: net}, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Compute(0.5)
			return c.Send(1, 1, make([]float64, 1000)) // 8000 bytes
		}
		_, _, err := c.Recv(0, 1)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5 + net.Cost(8000)
	for r, got := range times {
		if diff := got - want; diff < -1e-12 || diff > 1e-12 {
			t.Fatalf("rank %d clock = %v, want %v", r, got, want)
		}
	}
}

func TestVirtualClockRecvDoesNotRewind(t *testing.T) {
	net := NetModel{Alpha: 1e-3, Beta: 0}
	times, err := RunTimed(2, Options{Net: net}, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 1, 0)
		}
		c.Compute(10) // receiver is already far ahead
		_, _, err := c.Recv(0, 1)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if times[1] != 10 {
		t.Fatalf("receiver clock = %v, want 10 (no rewind)", times[1])
	}
}

func TestPayloadBytes(t *testing.T) {
	cases := []struct {
		v    any
		want int
	}{
		{nil, 0},
		{[]float64{1, 2, 3}, 24},
		{[]float32{1, 2}, 8},
		{[]int{1}, 8},
		{[]int32{1, 2, 3}, 12},
		{[]byte{1, 2}, 2},
		{3.14, 8},
		{7, 8},
		{true, 1},
		{"hello", 5},
		{ValLoc{1, 2}, 16},
		{struct{ X [100]byte }{}, 64}, // fallback estimate
	}
	for _, tc := range cases {
		if got := PayloadBytes(tc.v); got != tc.want {
			t.Errorf("PayloadBytes(%T) = %d, want %d", tc.v, got, tc.want)
		}
	}
}
