package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the program: a training
// call, one rank's core.Train, one served request. Spans are recorded from
// the benchmark's own files, around its calls into each layer; the program
// itself is not instrumented.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a root span
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"` // since the tracer was created
	End      int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil or disabled tracer
// records nothing and its begin returns 0, so call sites need no guard.
type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	on    bool
	spans []span
}

func newTracer(workload string, on bool) *tracer {
	return &tracer{workload: workload, t0: time.Now(), on: on}
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Workload: t.workload, Start: now})
	return len(t.spans)
}

// end closes span id; id 0 (tracing off) is ignored.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// setOn switches recording; the traced run alternates it to measure the
// tracing overhead against untraced rounds of the same run.
func (t *tracer) setOn(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span name, the summed self time of its spans: each
// span's duration minus the part of its interval that its children cover.
// Children may overlap each other (the ranks of one core.Train run at once),
// so the covered part is the union of their intervals clipped to the parent.
func selfTimes(spans []span) map[string]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of children spans.
func covered(parent span, children []span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	for _, v := range ivs {
		lo := max(v.lo, end)
		if v.hi > lo {
			total += v.hi - lo
		}
		end = max(end, v.hi)
	}
	return time.Duration(total)
}

// writeSpans writes spans as one JSON array.
func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
