package model

import (
	"bytes"
	"testing"
)

// FuzzModelRead drives the model reader with arbitrary bytes. Model files
// are read off disk by svmpredict and by the server's hot reload, so the
// invariant is strict: Read never panics or allocates on the say-so of a
// corrupted header, and whatever it accepts is a valid model whose
// serialization reads back to the same bytes. The committed corpus under
// testdata/fuzz/FuzzModelRead holds whole model files that once crashed
// the reader (a w_dim past int32, a huge w_dim with a wrong checksum, and
// feature indices that wrapped in the SV and W sections).
func FuzzModelRead(f *testing.F) {
	for _, m := range []*Model{
		svLess(6, 1),
		linearPair(f, 2, 4, 2),
		svrModel(),
		oneClassModel(),
	} {
		var buf bytes.Buffer
		if err := m.Write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("Read accepted an invalid model: %v\n%q", err, data)
		}
		var first bytes.Buffer
		if err := m.Write(&first); err != nil {
			t.Fatalf("write of an accepted model: %v", err)
		}
		back, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("own output rejected: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := back.Write(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("serialization not stable:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
