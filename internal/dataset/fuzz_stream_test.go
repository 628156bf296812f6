package dataset

import (
	"bufio"
	"bytes"
	"io"
	"testing"
)

// FuzzChunkSplit drives the chunk-boundary line splitter with arbitrary
// bytes and chunk sizes. Two invariants: byte conservation — concatenating
// the raw lines reproduces the input exactly, so no byte is ever dropped,
// duplicated, or merged across a chunk boundary — and a differential check
// that the trimmed lines match bufio.Scanner's tokens, which is what the
// whole-file reader parses.
func FuzzChunkSplit(f *testing.F) {
	for _, seed := range []struct {
		data  string
		chunk int
	}{
		{"", 1},
		{"+1 1:0.5 3:1.25\n-1 2:2\n", 7},
		{"a\r\nbb\r\ncc", 2},
		{"no trailing newline", 4},
		{"\n\n\n", 1},
		{"ends in bare cr\r", 3},
		{"# comment\n\n+1 1:1\n", 5},
		{"one line far longer than the chunk so it straddles many reads\n", 3},
	} {
		f.Add([]byte(seed.data), seed.chunk)
	}
	f.Fuzz(func(t *testing.T, data []byte, chunkSize int) {
		chunk := int(uint(chunkSize)%4093) + 1
		cr := newChunkReader(bytes.NewReader(data), chunk)
		var rebuilt []byte
		var trimmed [][]byte
		lines := 0
		for {
			wantLine := cr.line
			raw, err := cr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("chunk=%d: unexpected error: %v", chunk, err)
			}
			if len(raw) == 0 {
				t.Fatalf("chunk=%d: empty raw line at offset %d", chunk, cr.offset)
			}
			lines++
			if wantLine != lines {
				t.Fatalf("chunk=%d: line numbered %d, want %d", chunk, wantLine, lines)
			}
			rebuilt = append(rebuilt, raw...)
			trimmed = append(trimmed, append([]byte(nil), trimEOL(raw)...))
			if int64(len(rebuilt)) != cr.offset {
				t.Fatalf("chunk=%d: offset %d after %d bytes", chunk, cr.offset, len(rebuilt))
			}
		}
		if !bytes.Equal(rebuilt, data) {
			t.Fatalf("chunk=%d: reassembly differs: %d bytes in, %d bytes out", chunk, len(data), len(rebuilt))
		}
		// Differential: bufio.Scanner with a buffer large enough for any line.
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(make([]byte, 0, len(data)+1), len(data)+1)
		i := 0
		for sc.Scan() {
			if i >= len(trimmed) {
				t.Fatalf("chunk=%d: scanner produced extra line %d: %q", chunk, i+1, sc.Bytes())
			}
			if !bytes.Equal(sc.Bytes(), trimmed[i]) {
				t.Fatalf("chunk=%d: line %d: %q vs scanner %q", chunk, i+1, trimmed[i], sc.Bytes())
			}
			i++
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("scanner: %v", err)
		}
		if i != len(trimmed) {
			t.Fatalf("chunk=%d: %d lines vs scanner's %d", chunk, len(trimmed), i)
		}
	})
}

// trimEOL strips one trailing "\n" or "\r\n", plus a bare trailing "\r" on
// a terminator-less final line — byte-for-byte what bufio.ScanLines leaves
// in its tokens.
func trimEOL(raw []byte) []byte {
	if n := len(raw); n > 0 && raw[n-1] == '\n' {
		raw = raw[:n-1]
	}
	if n := len(raw); n > 0 && raw[n-1] == '\r' {
		raw = raw[:n-1]
	}
	return raw
}
