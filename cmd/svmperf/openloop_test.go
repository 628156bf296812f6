package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestOpenLoopTimesFromDue stalls the pacer for 30 ms before it sends
// request 5. The requests due during the stall go out late, and their
// latency must include the wait, because it is measured from the due time;
// a request due after the stall must not be charged for it.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const (
		rate    = 1000.0 // one request due every millisecond
		n       = 80
		stallAt = 5
		stall   = 30 * time.Millisecond
		work    = time.Millisecond
	)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(work)
		w.WriteHeader(http.StatusOK)
	})
	due := make([]time.Duration, n)
	for k := range due {
		due[k] = time.Duration(k) * time.Second / rate
	}
	out, lag := openLoop(h, due, func(k int) *http.Request {
		if k == stallAt {
			time.Sleep(stall)
		}
		return httptest.NewRequest(http.MethodPost, "/", nil)
	}, nil, 0)

	if lag < stall {
		t.Errorf("pacer lag %v, want at least the %v stall", lag, stall)
	}
	for k, o := range out {
		if o.code != http.StatusOK {
			t.Fatalf("request %d answered %d", k, o.code)
		}
		if o.lat < work {
			t.Errorf("request %d latency %v is shorter than the handler's %v", k, o.lat, work)
		}
	}
	// Request k (stallAt <= k < stallAt+30) was due at k ms and sent at
	// 35 ms at the earliest.
	for k := stallAt; k < stallAt+25; k++ {
		if want := stall + time.Duration(stallAt-k)*time.Millisecond; out[k].lat < want {
			t.Errorf("request %d latency %v, want at least %v of stall", k, out[k].lat, want)
		}
	}
	if last := out[n-1].lat; last >= stall {
		t.Errorf("request %d, due well after the stall, took %v", n-1, last)
	}
}
