package dataset

import (
	"runtime"
	"testing"
)

var heapSink []byte

// TestSampleLiveHeap checks the sampler reports a block a collection has
// marked live. The sampler reads once before it first waits, so stopping it
// at once still yields one sample.
func TestSampleLiveHeap(t *testing.T) {
	const size = 8 << 20
	heapSink = make([]byte, size)
	runtime.GC()
	peak := SampleLiveHeap()()
	heapSink = nil
	if peak < size {
		t.Fatalf("peak live heap %d bytes, want >= %d", peak, size)
	}
}
