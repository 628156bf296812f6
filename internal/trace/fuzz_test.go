package trace_test

import (
	"bytes"
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/trace"
)

// FuzzTraceLoad drives the trace reader with arbitrary bytes. svmtrace
// hands whatever Load accepts to perfmodel.Evaluate, so the invariant is
// that a malformed trace ends in an error from Load, never a panic, and
// that every trace Load accepts can be modeled.
// The committed corpus under testdata/fuzz/FuzzTraceLoad holds a real
// svmtrain -trace output and one trace per schedule Load rejects.
func FuzzTraceLoad(f *testing.F) {
	tr := trace.New("Multi5pc", 100, 4, 1e-3)
	tr.SetActive(10, 60)
	tr.AddRecon(40, 40, 12)
	tr.Iterations, tr.ShrinkChecks = 50, 3
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	m := perfmodel.Cascade(1e-7, 4)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, p := range []int{1, 4} {
			if _, err := perfmodel.Evaluate(tr, p, m); err != nil {
				t.Fatalf("Load accepted a trace Evaluate rejects at p=%d: %v\n%s", p, err, data)
			}
		}
	})
}
