package dataset

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseLine drives the labeled-line parser with arbitrary input. The
// parser fronts both file loading and the serving path's request decoding,
// so the invariant is strict: no panic ever, and on success the label is
// finite and the row satisfies every structural guarantee the solvers and
// the CSR matrix rely on.
func FuzzParseLine(f *testing.F) {
	for _, seed := range []string{
		"+1 1:0.5 3:1.25 10:-2",
		"-1 1:1 2:1 3:1",
		"2 4:0.001",
		"1",
		"",
		"# comment",
		"+1 1:NaN",
		"-1 2:Inf",
		"NaN 1:1",
		"+1 99999999999:1",
		"+1 2147483648:1",
		"+1 1:1e400",
		"+1 3:1 2:1",
		"+1 0:1",
		"+1 1:1 1:2",
		"+1 a:b",
		"+1 1:",
		"+1 :1",
		"\t+1\t1:3.5\t\t7:0.25",
		"1e3 1:0x1p-2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		label, row, err := ParseLine(line)
		if err != nil {
			return
		}
		if math.IsNaN(label) || math.IsInf(label, 0) {
			t.Fatalf("accepted non-finite label %v from %q", label, line)
		}
		checkRowInvariants(t, line, row.Idx, row.Val)
	})
}

// FuzzParseRow is FuzzParseLine for the unlabeled request-row format the
// inference server accepts.
func FuzzParseRow(f *testing.F) {
	for _, seed := range []string{
		"1:0.5 3:1.25 10:-2",
		"",
		"1:NaN",
		"2:Inf 3:-Inf",
		"99999999999:1",
		"2147483647:1",
		"2147483648:1",
		"1:1e400 2:1e-400",
		"3:1 2:1",
		"0:1",
		"1:1 1:2",
		"a:b c",
		"1: :2",
		"  5:0.5   9:-0.5  ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		row, err := ParseRow(line)
		if err != nil {
			return
		}
		checkRowInvariants(t, line, row.Idx, row.Val)
	})
}

// checkRowInvariants asserts what every accepted row must satisfy:
// 0-based indices that are non-negative (no int32 wrap-around) and strictly
// increasing, matching index/value lengths, and finite values only.
func checkRowInvariants(t *testing.T, line string, idx []int32, val []float64) {
	t.Helper()
	if len(idx) != len(val) {
		t.Fatalf("index/value length mismatch %d != %d from %q", len(idx), len(val), line)
	}
	prev := int32(-1)
	for k, i := range idx {
		if i < 0 {
			t.Fatalf("negative (overflowed) index %d from %q", i, line)
		}
		if i <= prev {
			t.Fatalf("non-increasing index %d after %d from %q", i, prev, line)
		}
		prev = i
		if math.IsNaN(val[k]) || math.IsInf(val[k], 0) {
			t.Fatalf("accepted non-finite value %v from %q", val[k], line)
		}
	}
	// An accepted line must round-trip through the writer format: rebuilding
	// the textual row and reparsing it must succeed and yield the same row.
	var sb strings.Builder
	for k, i := range idx {
		if k > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(strconv.Itoa(int(i) + 1))
		sb.WriteByte(':')
		sb.WriteString(strconv.FormatFloat(val[k], 'g', -1, 64))
	}
	row2, err := ParseRow(sb.String())
	if err != nil {
		t.Fatalf("round-trip reparse of %q (from %q) failed: %v", sb.String(), line, err)
	}
	if len(row2.Idx) != len(idx) {
		t.Fatalf("round-trip length changed: %d -> %d from %q", len(idx), len(row2.Idx), line)
	}
	for k := range idx {
		if row2.Idx[k] != idx[k] || row2.Val[k] != val[k] {
			t.Fatalf("round-trip mismatch at %d: (%d,%v) -> (%d,%v) from %q",
				k, idx[k], val[k], row2.Idx[k], row2.Val[k], line)
		}
	}
}

// FuzzReadScaler drives the scaler restore-file reader (svmscale -restore)
// with arbitrary bytes: no panic, indices past int32 are errors, and an
// accepted scaler writes back to a file that reads to the same bytes.
func FuzzReadScaler(f *testing.F) {
	for _, seed := range []string{
		"x\n-1 1\n1 0 2\n3 -1 5\n",
		"x\n0 1\n",
		"x\n0 1\n2147483648 0 1\n",
		"x\n0 1\n1000000000000 0 1\n",
		"x\n1 0\n",
		"x\n0 1\n0 1 2\n",
		"x\n0 1\n1 NaN Inf\n",
		"y\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The ranges are dense up to the largest index, so a valid file
		// naming feature 2^31-1 needs 32 GiB. Such inputs are legal, and
		// the fuzzer only skips them to stay within a test's memory.
		for _, line := range strings.Split(string(data), "\n") {
			if fs := strings.Fields(line); len(fs) == 3 {
				if i, err := strconv.Atoi(fs[0]); err == nil && i > 1<<16 && i <= math.MaxInt32 {
					t.Skip("dense index beyond the fuzz memory budget")
				}
			}
		}
		s, err := ReadScaler(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := s.Write(&first); err != nil {
			t.Fatal(err)
		}
		back, err := ReadScaler(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("own output rejected: %v\n%s", err, first.Bytes())
		}
		if err := back.Write(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("scaler not stable across write/read:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
