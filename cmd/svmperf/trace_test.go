package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	sp := func(id, parent int, name string, start, end int64) span {
		return span{ID: id, Parent: parent, Name: name, Start: start, End: end}
	}
	for _, tc := range []struct {
		name  string
		spans []span
		want  map[string]time.Duration
	}{
		{"leaf", []span{sp(1, 0, "a", 5, 25)}, map[string]time.Duration{"a": 20}},
		{
			// Two ranks overlap inside their parent; a third child runs past
			// the parent's end and only its inner part counts as covered.
			"overlapping and clipped children",
			[]span{
				sp(1, 0, "op", 0, 100),
				sp(2, 1, "rank", 10, 30),
				sp(3, 1, "rank", 20, 50),
				sp(4, 1, "tail", 90, 120),
			},
			map[string]time.Duration{"op": 50, "rank": 50, "tail": 30},
		},
		{
			// A grandchild is subtracted from its own parent only.
			"nested",
			[]span{
				sp(1, 0, "round", 0, 100),
				sp(2, 1, "op", 10, 90),
				sp(3, 2, "call", 20, 60),
				sp(4, 2, "call", 60, 70),
			},
			map[string]time.Duration{"round": 20, "op": 30, "call": 50},
		},
		{
			// Children summed by name across parents.
			"two roots",
			[]span{
				sp(1, 0, "step", 0, 10),
				sp(2, 1, "req", 0, 4),
				sp(3, 0, "step", 20, 30),
				sp(4, 3, "req", 25, 35),
			},
			map[string]time.Duration{"step": 11, "req": 14},
		},
	} {
		got := selfTimes(tc.spans)
		if len(got) != len(tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
		for n, w := range tc.want {
			if got[n] != w {
				t.Errorf("%s: self(%s) = %v, want %v", tc.name, n, got[n], w)
			}
		}
	}
}

func TestTracerOff(t *testing.T) {
	tr := newTracer("w", false)
	if id := tr.begin("x", 0); id != 0 {
		t.Fatalf("disabled tracer returned span id %d", id)
	}
	tr.end(0)
	tr.setOn(true)
	id := tr.begin("x", 0)
	tr.end(id)
	if s := tr.snapshot(); len(s) != 1 || s[0].Name != "x" || s[0].Workload != "w" || s[0].End < s[0].Start {
		t.Fatalf("spans = %+v", s)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x", 0))
}
