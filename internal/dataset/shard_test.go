package dataset

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteLibsvmRoundTrip checks a write/read round trip is bit-exact:
// values are formatted with shortest-unique precision, so every float64
// (including awkward magnitudes) survives the text format unchanged.
func TestWriteLibsvmRoundTrip(t *testing.T) {
	data := randomLibsvm(t, 21, 120, 45, 0.2)
	x, y, err := ReadLibsvm(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	// Plant values whose decimal expansions are maximally awkward.
	for k, v := range []float64{
		1.0 / 3.0, math.Nextafter(1, 2), 0.1, 5e-324, math.MaxFloat64,
		-2.2250738585072014e-308, 1e16 + 2, math.Pi,
	} {
		if k < len(x.Val) {
			x.Val[k] = v
		}
	}
	var buf bytes.Buffer
	if err := WriteLibsvm(&buf, x, y); err != nil {
		t.Fatal(err)
	}
	x2, y2, err := ReadLibsvm(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !matricesIdentical(x, x2) {
		t.Fatal("matrix not bit-identical after write/read round trip")
	}
	if !labelsIdentical(y, y2) {
		t.Fatal("labels differ after round trip")
	}
	// And the round trip is a fixed point: writing again yields the same bytes.
	var buf2 bytes.Buffer
	if err := WriteLibsvm(&buf2, x2, y2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("second write differs from first")
	}
}

// TestShardRange checks the byte split covers [0, size) exactly once.
func TestShardRange(t *testing.T) {
	for _, size := range []int64{0, 1, 7, 1000, 1<<31 + 13} {
		for _, n := range []int{1, 2, 3, 7, 64} {
			var prev int64
			for r := 0; r < n; r++ {
				lo, hi := shardRange(size, r, n)
				if lo != prev || hi < lo {
					t.Fatalf("size=%d n=%d rank=%d: range [%d,%d) after %d", size, n, r, lo, hi, prev)
				}
				prev = hi
			}
			if prev != size {
				t.Fatalf("size=%d n=%d: ranges end at %d", size, n, prev)
			}
		}
	}
}

// TestLoadShardParity checks that byte-range shards concatenate to exactly
// the single-file parse, for every shard count, on every awkward encoding
// variant (CRLF, no trailing newline, interleaved comments).
func TestLoadShardParity(t *testing.T) {
	data := randomLibsvm(t, 31, 101, 30, 0.2)
	dir := t.TempDir()
	for name, variant := range streamVariants(data) {
		path := filepath.Join(dir, name+".libsvm")
		if err := os.WriteFile(path, variant, 0o644); err != nil {
			t.Fatal(err)
		}
		wantX, wantY, err := scanLibsvm(bytes.NewReader(variant))
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2, 3, 5, 16, 64} {
			shards, err := LoadSharded(path, n)
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			if len(shards) != n {
				t.Fatalf("%s n=%d: %d shards", name, n, len(shards))
			}
			lo := 0
			for r, s := range shards {
				if s.Lo != lo {
					t.Fatalf("%s n=%d shard %d: Lo=%d, want %d", name, n, r, s.Lo, lo)
				}
				lo += s.X.Rows()
			}
			gotX, gotY := ConcatShards(shards)
			if !matricesIdentical(wantX, gotX) {
				t.Fatalf("%s n=%d: concatenated shards differ from whole-file parse", name, n)
			}
			if !labelsIdentical(wantY, gotY) {
				t.Fatalf("%s n=%d: labels differ", name, n)
			}
		}
	}
}

// TestWriteShardsConcat checks the shard files concatenate byte-identically
// to the single-file encoding, and that LoadSharded accepts the file layout.
func TestWriteShardsConcat(t *testing.T) {
	data := randomLibsvm(t, 41, 57, 20, 0.3)
	x, y, err := ReadLibsvm(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	base := filepath.Join(dir, "train.libsvm")
	const n = 4
	paths, err := WriteShards(base, x, y, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != n {
		t.Fatalf("%d paths", len(paths))
	}
	var whole bytes.Buffer
	if err := WriteLibsvm(&whole, x, y); err != nil {
		t.Fatal(err)
	}
	var cat bytes.Buffer
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		cat.Write(b)
	}
	if !bytes.Equal(whole.Bytes(), cat.Bytes()) {
		t.Fatal("concatenated shard files differ from the single-file encoding")
	}

	if got, err := detectShards(base); err != nil || got != n {
		t.Fatalf("detectShards = %d, %v; want %d", got, err, n)
	}
	shards, err := LoadSharded(base, 0) // 0: take the on-disk shard count
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != n {
		t.Fatalf("%d shards loaded", len(shards))
	}
	gotX, gotY := ConcatShards(shards)
	if !matricesIdentical(x, gotX) || !labelsIdentical(y, gotY) {
		t.Fatal("sharded load differs from original")
	}

	// Mismatched rank count on a pre-split layout is an error, not a resplit.
	if _, err := LoadSharded(base, n+1); err == nil {
		t.Fatal("LoadSharded accepted a mismatched shard count")
	}
	// A missing shard file is detected, not silently skipped.
	if err := os.Remove(paths[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := detectShards(base); err == nil {
		t.Fatal("detectShards accepted an incomplete shard set")
	}
}

// TestLoadShardErrors checks parse errors inside a shard are reported with
// shard attribution.
func TestLoadShardErrors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.libsvm")
	if err := os.WriteFile(path, []byte("+1 1:1\n+1 1:1\n+1 nope\n+1 1:1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSharded(path, 2); err == nil {
		t.Fatal("LoadSharded accepted a malformed shard")
	}
	// Degenerate splits: more shards than lines still parses cleanly.
	small := filepath.Join(dir, "small.libsvm")
	if err := os.WriteFile(small, []byte("+1 1:1\n-1 2:1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	shards, err := LoadSharded(small, 16)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, s := range shards {
		rows += s.X.Rows()
	}
	if rows != 2 {
		t.Fatalf("%d rows across degenerate shards, want 2", rows)
	}
}
