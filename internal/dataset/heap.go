package dataset

import (
	"runtime/metrics"
	"sync"
	"time"
)

// SampleLiveHeap polls the live heap every 10ms until the returned stop
// function is called, which reports the largest value seen in bytes. Live
// heap is runtime/metrics' /gc/heap/live:bytes: what the last collection
// marked reachable, so garbage the collector has not reached yet does not
// count. It makes the out-of-core promise observable: the peak should track
// the resident budget, not the dataset size. Reading runtime/metrics does
// not stop the world, so sampling does not perturb the run it measures.
func SampleLiveHeap() (stop func() uint64) {
	done := make(chan struct{})
	var peak uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() uint64 {
		close(done)
		wg.Wait()
		return peak
	}
}
